// Unit tests for the ring buffer behind the frame window and the FPS counters.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/ring_buffer.hpp"

namespace nextgov {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb{4};
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, RejectsZeroCapacity) { EXPECT_THROW(RingBuffer<int>{0}, ConfigError); }

TEST(RingBuffer, FillsInOrder) {
  RingBuffer<int> rb{3};
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb[0], 1);
  EXPECT_EQ(rb[1], 2);
  EXPECT_EQ(rb.oldest(), 1);
  EXPECT_EQ(rb.newest(), 2);
}

TEST(RingBuffer, EvictsOldestWhenFull) {
  RingBuffer<int> rb{3};
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb[0], 3);
  EXPECT_EQ(rb[1], 4);
  EXPECT_EQ(rb[2], 5);
}

TEST(RingBuffer, ToVectorIsOldestFirst) {
  RingBuffer<int> rb{3};
  for (int i = 0; i < 7; ++i) rb.push(i);
  const auto v = rb.to_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 4);
  EXPECT_EQ(v[2], 6);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb{2};
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(9);
  EXPECT_EQ(rb.newest(), 9);
  EXPECT_EQ(rb.size(), 1u);
}

TEST(RingBuffer, PopOldestDropsFromTheFront) {
  RingBuffer<int> rb{3};
  for (int i = 1; i <= 4; ++i) rb.push(i);  // wrapped: 2 3 4
  rb.pop_oldest();
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.oldest(), 3);
  EXPECT_EQ(rb.newest(), 4);
  rb.push(5);
  EXPECT_EQ(rb.to_vector(), (std::vector<int>{3, 4, 5}));
}

TEST(RingBuffer, ReserveKeepsContentsInOrderAndNeverShrinks) {
  RingBuffer<int> rb{3};
  for (int i = 1; i <= 5; ++i) rb.push(i);  // wrapped: 3 4 5
  rb.reserve(8);
  EXPECT_EQ(rb.capacity(), 8u);
  EXPECT_EQ(rb.to_vector(), (std::vector<int>{3, 4, 5}));
  for (int i = 6; i <= 10; ++i) rb.push(i);  // fills the new slots without evicting
  EXPECT_EQ(rb.to_vector(), (std::vector<int>{3, 4, 5, 6, 7, 8, 9, 10}));
  rb.reserve(2);
  EXPECT_EQ(rb.capacity(), 8u);
  rb.push(11);
  EXPECT_EQ(rb.oldest(), 4);
}

/// Property: after any number of pushes, contents equal the last
/// min(n, capacity) pushed values in order.
class RingBufferProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingBufferProperty, ContentsMatchTail) {
  const std::size_t capacity = GetParam();
  RingBuffer<int> rb{capacity};
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    rb.push(i);
    const auto expected_size = std::min<std::size_t>(capacity, static_cast<std::size_t>(i) + 1);
    ASSERT_EQ(rb.size(), expected_size);
    for (std::size_t k = 0; k < expected_size; ++k) {
      ASSERT_EQ(rb[k], i - static_cast<int>(expected_size) + 1 + static_cast<int>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 160u));

}  // namespace
}  // namespace nextgov
