// Unit tests for the sparse Q-table, including persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "rl/federated.hpp"
#include "rl/qtable.hpp"
#include "rl/qtable_delta.hpp"

namespace nextgov::rl {
namespace {

TEST(QTable, StartsEmptyWithDefaultValues) {
  QTable t{9};
  EXPECT_EQ(t.state_count(), 0u);
  EXPECT_DOUBLE_EQ(t.q(123, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.max_q(123), 0.0);
  EXPECT_EQ(t.best_action(123, 5), 5u);  // fallback for unknown state
}

TEST(QTable, OptimisticDefaultAppliesToUnseenEntries) {
  QTable t{4, 1.5};
  EXPECT_DOUBLE_EQ(t.q(7, 2), 1.5);
  EXPECT_DOUBLE_EQ(t.max_q(7), 1.5);
  t.set_q(7, 0, 0.3);
  // Touched entry materializes with the optimistic default elsewhere.
  EXPECT_DOUBLE_EQ(t.q(7, 1), 1.5);
  EXPECT_FLOAT_EQ(static_cast<float>(t.q(7, 0)), 0.3f);  // float storage
}

TEST(QTable, RejectsZeroActions) { EXPECT_THROW(QTable{0}, ConfigError); }

TEST(QTable, BestActionPrefersHighestQ) {
  QTable t{3};
  t.set_q(1, 0, 0.1);
  t.set_q(1, 1, 0.9);
  t.set_q(1, 2, 0.5);
  EXPECT_EQ(t.best_action(1), 1u);
  EXPECT_DOUBLE_EQ(t.max_q(1), static_cast<float>(0.9));
}

TEST(QTable, BestTriedActionIgnoresUntriedOptimisticEntries) {
  QTable t{3, 5.0};  // untried entries look great at 5.0
  t.set_q(1, 2, 0.4);
  // best_action would pick an untried 5.0; best_tried_action must not.
  EXPECT_EQ(t.best_action(1), 0u);
  EXPECT_EQ(t.best_tried_action(1, 99), 2u);
  // Unknown state: fallback.
  EXPECT_EQ(t.best_tried_action(42, 7), 7u);
}

TEST(QTable, VisitAccounting) {
  QTable t{2};
  t.record_visit(10);
  t.record_visit(10);
  t.record_visit(20);
  EXPECT_EQ(t.visits(10), 2u);
  EXPECT_EQ(t.visits(20), 1u);
  EXPECT_EQ(t.visits(30), 0u);
  EXPECT_EQ(t.total_visits(), 3u);
  t.add_visits(20, 5);
  EXPECT_EQ(t.visits(20), 6u);
  EXPECT_EQ(t.total_visits(), 8u);
}

TEST(QTable, ClearResetsEverything) {
  QTable t{2};
  t.set_q(1, 0, 0.5);
  t.record_visit(1);
  t.clear();
  EXPECT_EQ(t.state_count(), 0u);
  EXPECT_EQ(t.total_visits(), 0u);
}

TEST(QTable, EqualityIsExact) {
  QTable a{3};
  QTable b{3};
  EXPECT_TRUE(a == b);
  a.set_q(5, 1, 0.25);
  EXPECT_FALSE(a == b);
  b.set_q(5, 1, 0.25);
  EXPECT_TRUE(a == b);
  // Visit mass participates: same values, different history -> unequal.
  a.record_visit(5);
  EXPECT_FALSE(a == b);
  b.record_visit(5);
  EXPECT_TRUE(a == b);
  // Action count and default participate too.
  EXPECT_FALSE(QTable{3} == QTable{4});
  EXPECT_FALSE((QTable{3, 0.0}) == (QTable{3, 1.0}));
}

TEST(QTable, EqualityIgnoresInsertionOrder) {
  QTable a{2};
  QTable b{2};
  a.set_q(1, 0, 0.1);
  a.set_q(2, 0, 0.2);
  b.set_q(2, 0, 0.2);
  b.set_q(1, 0, 0.1);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a != b);
}

TEST(QTable, GrowthPreservesEveryStoredValueExactly) {
  // Push the table to 20k states so it rehashes at every doubling from
  // its first 2-slot slab up, then audit every entry against a recomputable
  // formula. Pins the slot-major rehash copy: a transposed index in the
  // grow loop scrambles Q rows silently while small-table tests stay green
  // (this exact bug escaped the rest of the suite once).
  QTable t{7, 2.0};
  const auto value = [](StateKey s, std::size_t a) {
    return 0.125 * static_cast<double>((s * 7 + a) % 1000);
  };
  const std::size_t n = 20000;
  for (StateKey s = 1; s <= n; ++s) {
    t.set_q(s * 0x9e3779b9u, s % 7, value(s * 0x9e3779b9u, s % 7));
    t.add_visits(s * 0x9e3779b9u, s % 5);
  }
  ASSERT_EQ(t.state_count(), n);
  for (StateKey s = 1; s <= n; ++s) {
    const StateKey key = s * 0x9e3779b9u;
    EXPECT_FLOAT_EQ(static_cast<float>(t.q(key, s % 7)),
                    static_cast<float>(value(key, s % 7)))
        << "state " << s;
    EXPECT_FLOAT_EQ(static_cast<float>(t.q(key, (s + 1) % 7)), 2.0f) << "state " << s;
    EXPECT_EQ(t.visits(key), s % 5);
    EXPECT_EQ(t.tried_mask(key), 1u << (s % 7));
  }
  // The grown table round-trips through the canonical wire bit-exactly.
  ByteWriter w;
  t.serialize(w);
  ByteReader r{w.data(), "grown"};
  EXPECT_TRUE(QTable::deserialize(r) == t);
}

TEST(QTable, SerializationIsCanonical) {
  // Equal tables must produce identical bytes regardless of the order
  // states were learned in - fleet resume golden tests compare snapshots
  // byte-for-byte.
  QTable a{2};
  QTable b{2};
  for (StateKey s = 0; s < 20; ++s) a.set_q(s * 7, 1, 0.1 * static_cast<double>(s));
  for (StateKey s = 20; s-- > 0;) b.set_q(s * 7, 1, 0.1 * static_cast<double>(s));
  ByteWriter wa;
  ByteWriter wb;
  a.serialize(wa);
  b.serialize(wb);
  EXPECT_EQ(wa.data(), wb.data());
}

/// The canonical encoding written the straightforward way: the keys the
/// test inserted, ordered by std::sort, each row emitted value by value.
std::vector<std::uint8_t> reference_encoding(const QTable& t, std::vector<StateKey> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  ByteWriter w;
  w.u64(t.action_count());
  w.f64(t.default_q());
  w.u64(t.total_visits());
  w.u64(keys.size());
  for (const StateKey k : keys) {
    const auto e = t.find_entry(k);
    if (!e.has_value()) return {};
    w.u64(k);
    w.u64(e->visits());
    w.u32(e->tried());
    for (std::size_t a = 0; a < t.action_count(); ++a) w.f32(e->q(a));
  }
  return w.data();
}

/// for_each_entry yields strictly increasing keys covering every state, and
/// serialize() equals the std::sort reference byte for byte.
void expect_canonical(const QTable& t, const std::vector<StateKey>& keys) {
  std::size_t seen = 0;
  bool increasing = true;
  StateKey prev = 0;
  t.for_each_entry([&](const QTable::EntryView& e) {
    if (seen > 0 && e.key() <= prev) increasing = false;
    prev = e.key();
    ++seen;
  });
  EXPECT_TRUE(increasing);
  EXPECT_EQ(seen, t.state_count());
  ByteWriter w;
  t.serialize(w);
  EXPECT_EQ(w.data(), reference_encoding(t, keys));
}

QTable table_with(const std::vector<StateKey>& keys) {
  QTable t{3, 0.5};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    t.set_q(keys[i], i % 3, 0.001 * static_cast<double>(i));
    t.add_visits(keys[i], i % 4);
  }
  return t;
}

TEST(QTableCanonicalOrder, KeysDifferingOnlyInTheTopByte) {
  std::vector<StateKey> keys;
  for (StateKey hi = 256; hi-- > 0;) keys.push_back(hi << 56 | 0x00ABCDEF12345678ULL);
  expect_canonical(table_with(keys), keys);
}

TEST(QTableCanonicalOrder, ExtremeKeys) {
  const std::vector<StateKey> keys{std::numeric_limits<StateKey>::max(), 0, 1,
                                   std::numeric_limits<StateKey>::max() - 1, 1ULL << 63};
  expect_canonical(table_with(keys), keys);
}

TEST(QTableCanonicalOrder, EmptyAndOneEntryTables) {
  expect_canonical(QTable{4}, {});
  expect_canonical(table_with({42}), {42});
}

TEST(QTableCanonicalOrder, TableGrownPastItsFirstCapacity) {
  SplitMix64 rng{2026};
  std::vector<StateKey> keys(10000);
  for (StateKey& k : keys) k = rng.next() >> (rng.next() % 64);  // every key width
  const QTable t = table_with(keys);
  ASSERT_GT(t.state_count(), 4096u * 3 / 4);  // past the 4096-slot rehash boundary
  expect_canonical(t, keys);
}

TEST(QTableCanonicalOrder, InsertionOrderDoesNotLeak) {
  SplitMix64 rng{7};
  std::vector<StateKey> keys(5000);
  for (StateKey& k : keys) k = rng.next() & 0x0000FFFF00FF00FFULL;  // packed-field style
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<StateKey> reversed(keys.rbegin(), keys.rend());
  QTable a{3};
  QTable b{3};
  for (const StateKey k : keys) a.set_q(k, k % 3, static_cast<double>(k % 97));
  for (const StateKey k : reversed) b.set_q(k, k % 3, static_cast<double>(k % 97));
  expect_canonical(a, keys);
  expect_canonical(b, keys);
  ByteWriter wa;
  ByteWriter wb;
  a.serialize(wa);
  b.serialize(wb);
  EXPECT_EQ(wa.data(), wb.data());
}

TEST(QTable, DeserializeRoundTripsExactly) {
  QTable t{5, 0.5};
  for (StateKey s = 0; s < 30; ++s) {
    t.set_q(s * 31, s % 5, static_cast<double>(s) * 0.01);
    t.add_visits(s * 31, s);
  }
  ByteWriter w;
  t.serialize(w);
  ByteReader r{w.data(), "test"};
  const QTable back = QTable::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(back == t);
}

TEST(QTable, DeserializeRejectsImplausibleHeaders) {
  ByteWriter w;
  w.u64(0);  // zero actions
  ByteReader r{w.data(), "test"};
  EXPECT_THROW((void)QTable::deserialize(r), SerializeError);
}

class QTablePersistence : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test case: ctest runs every case in its own process, so a
  // shared path would let concurrent cases overwrite each other's file.
  const ::testing::TestInfo* test_ = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path_ = ::testing::TempDir() + "/nextgov_qtable_" + test_->test_suite_name() + "_" +
                      test_->name() + ".bin";
};

TEST_F(QTablePersistence, SaveLoadRoundTrip) {
  QTable t{9};
  for (StateKey s = 0; s < 50; ++s) {
    for (std::size_t a = 0; a < 9; a += 2) t.set_q(s * 1000, a, 0.01 * static_cast<double>(s) + 0.1 * static_cast<double>(a));
    t.record_visit(s * 1000);
  }
  t.save(path_);
  const QTable loaded = QTable::load(path_);
  EXPECT_EQ(loaded.action_count(), 9u);
  EXPECT_EQ(loaded.state_count(), 50u);
  EXPECT_EQ(loaded.total_visits(), t.total_visits());
  for (StateKey s = 0; s < 50; ++s) {
    for (std::size_t a = 0; a < 9; ++a) {
      EXPECT_FLOAT_EQ(static_cast<float>(loaded.q(s * 1000, a)),
                      static_cast<float>(t.q(s * 1000, a)));
    }
    EXPECT_EQ(loaded.best_tried_action(s * 1000, 1), t.best_tried_action(s * 1000, 1));
  }
}

TEST_F(QTablePersistence, LoadRejectsGarbage) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a qtable", f);
    std::fclose(f);
  }
  EXPECT_THROW(QTable::load(path_), IoError);
}

TEST_F(QTablePersistence, LoadRejectsCorruptedAndTruncatedFiles) {
  QTable t{4};
  for (StateKey s = 0; s < 10; ++s) t.set_q(s, s % 4, 0.5);
  t.save(path_);
  std::vector<unsigned char> good;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) good.push_back(static_cast<unsigned char>(c));
    std::fclose(f);
  }
  const auto write_bytes = [&](const std::vector<unsigned char>& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  };
  // Flip one payload byte: the section CRC must catch it.
  std::vector<unsigned char> flipped = good;
  flipped[good.size() - 3] ^= 0x10;
  write_bytes(flipped);
  try {
    (void)QTable::load(path_);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC32"), std::string::npos) << e.what();
  }
  // Truncate: the framing must catch it.
  write_bytes({good.begin(), good.begin() + static_cast<std::ptrdiff_t>(good.size() / 2)});
  EXPECT_THROW((void)QTable::load(path_), SerializeError);
  // And the original still loads.
  write_bytes(good);
  EXPECT_TRUE(QTable::load(path_) == t);
}

TEST_F(QTablePersistence, LoadMissingFileThrows) {
  EXPECT_THROW(QTable::load("/nonexistent/q.bin"), IoError);
}

TEST_F(QTablePersistence, SaveToBadPathThrows) {
  const QTable t{2};
  EXPECT_THROW(t.save("/nonexistent-dir-xyz/q.bin"), IoError);
}

// --- residency: capacity follows the state count -------------------------

/// One slot's bytes at `actions` actions: key, used flag, visit count, tried
/// mask and one float per action.
std::size_t slot_bytes(std::size_t actions) { return 8 + 1 + 8 + 4 + 4 * actions; }

/// memory_bytes() of a table with `slots` slots (the header is what an
/// empty, never-allocated table reports).
std::size_t bytes_at(std::size_t actions, std::size_t slots) {
  return QTable{actions}.memory_bytes() + slots * slot_bytes(actions);
}

/// The capacity policy: the smallest power of two holding n states at
/// load <= 3/4 (no slots at all for an empty table).
std::size_t policy_slots(std::size_t n) {
  if (n == 0) return 0;
  std::size_t slots = 1;
  while (4 * n > 3 * slots) slots *= 2;
  return slots;
}

/// A table of `n` states with pseudo-random keys, tried values and visits.
QTable random_table(std::size_t actions, std::size_t n, std::uint64_t seed) {
  SplitMix64 rng{seed};
  QTable t{actions, 1.0};
  while (t.state_count() < n) {
    const StateKey k = rng.next();
    t.set_q(k, k % actions, static_cast<double>(k % 1000) * 0.01);
    t.add_visits(k, 1 + k % 7);
  }
  return t;
}

TEST(QTableResidency, OnlineGrowthStaysWithinTwiceTheExactFit) {
  // Exact fit: the header plus the fewest slots that hold n states at load
  // <= 3/4. Power-of-two doubling may overshoot it, never by 2x.
  for (const std::size_t actions : {std::size_t{1}, std::size_t{9}}) {
    QTable t{actions};
    const std::size_t header = QTable{actions}.memory_bytes();
    for (StateKey s = 1; s <= 20000; ++s) {
      t.set_q(s * 0x9e3779b97f4a7c15ULL, 0, 1.0);
      const std::size_t n = t.state_count();
      const double per_state = static_cast<double>(t.memory_bytes()) / static_cast<double>(n);
      const double fit_per_state =
          static_cast<double>(header + (4 * n + 2) / 3 * slot_bytes(actions)) /
          static_cast<double>(n);
      ASSERT_LT(per_state, 2.0 * fit_per_state) << actions << " actions, " << n << " states";
      ASSERT_EQ(t.memory_bytes(), bytes_at(actions, policy_slots(n)))
          << actions << " actions, " << n << " states";
    }
  }
}

TEST(QTableResidency, EmptyTableOwnsNoSlots) {
  const QTable t{9};
  EXPECT_EQ(t.memory_bytes(), bytes_at(9, 0));
}

TEST(QTableResidency, ReserveSizesOnceAndNeverShrinks) {
  QTable t{9};
  t.reserve(560);
  EXPECT_EQ(t.memory_bytes(), bytes_at(9, 1024));
  t.reserve(10);
  EXPECT_EQ(t.memory_bytes(), bytes_at(9, 1024));
  for (StateKey k = 1; k <= 560; ++k) t.set_q(k, 0, 1.0);
  EXPECT_EQ(t.memory_bytes(), bytes_at(9, 1024));  // the fill never grew past it
}

TEST(QTableResidency, DecodedTablesHoldExactlyThePolicyCapacity) {
  for (const std::size_t n : {1u, 47u, 48u, 49u, 560u, 3000u}) {
    const QTable t = random_table(9, n, n);
    const std::size_t expected = bytes_at(9, policy_slots(n));
    ByteWriter w;
    t.serialize(w);
    ByteReader in{w.data(), "residency"};
    const QTable full = QTable::deserialize(in);
    EXPECT_TRUE(full == t);
    EXPECT_EQ(full.memory_bytes(), expected) << n << " states";
    for (const WireQuant quant : {WireQuant::kF32, WireQuant::kF16, WireQuant::kQ8}) {
      ByteWriter qw;
      serialize_quantized(t, quant, qw);
      ByteReader qin{qw.data(), "residency"};
      EXPECT_EQ(deserialize_quantized(qin).memory_bytes(), expected)
          << n << " states, quant " << static_cast<int>(quant);
    }
  }
}

TEST(QTableResidency, DeltaAppliedTablesHoldExactlyThePolicyCapacity) {
  // The base's 40 states sit in 64 slots; the 200-state sender needs 512.
  const QTable base = random_table(9, 40, 11);
  QTable next = base;
  SplitMix64 rng{12};
  while (next.state_count() < 200) next.set_q(rng.next(), 1, 0.5);
  const std::optional<QTableDelta> delta = try_make_delta(base, next);
  ASSERT_TRUE(delta.has_value());
  ByteWriter w;
  delta->serialize(w);
  ByteReader in{w.data(), "residency"};
  const QTable applied = apply_delta(base, QTableDelta::deserialize(in));
  EXPECT_TRUE(applied == next);
  EXPECT_EQ(applied.memory_bytes(), bytes_at(9, policy_slots(200)));
}

TEST(QTableResidency, MergedTablesHoldExactlyThePolicyCapacity) {
  const QTable a = random_table(9, 560, 21);
  const QTable b = random_table(9, 700, 22);
  const QTable* tables[] = {&a, &b};
  for (const std::size_t workers : {1u, 3u}) {
    const QTable merged = merge_q_tables(tables, workers);
    EXPECT_EQ(merged.memory_bytes(), bytes_at(9, policy_slots(merged.state_count())))
        << workers << " workers";
  }
  const QTable empty{9};
  const QTable* empties[] = {&empty, &empty};
  EXPECT_EQ(merge_q_tables(empties).memory_bytes(), bytes_at(9, 0));
}

}  // namespace
}  // namespace nextgov::rl
