// ring_buffer.hpp - circular buffer with explicit capacity.
//
// Backs the paper's "frame window" (160 FPS samples at 25 ms over 4 s) and
// the sliding FPS counters (render/fps_counter.hpp). Once full, each push
// evicts the oldest element; pop_oldest() drops it explicitly; iteration
// yields elements oldest-first. Storage is allocated only by the
// constructor and reserve(): push() and pop_oldest() never allocate, so a
// buffer that has reached its working size stays allocation-free.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace nextgov {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : buf_(capacity) {
    require(capacity > 0, "RingBuffer capacity must be positive");
  }

  void push(const T& value) noexcept {
    buf_[head_] = value;
    head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
    if (size_ < buf_.size()) ++size_;
  }

  /// Drops the oldest element.
  void pop_oldest() noexcept {
    NEXTGOV_ASSERT(size_ > 0);
    --size_;
  }

  /// Grows the storage to hold `capacity` elements (never shrinks),
  /// keeping the contents and their order.
  void reserve(std::size_t capacity) {
    if (capacity <= buf_.size()) return;
    std::vector<T> grown(capacity);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = (*this)[i];
    buf_ = std::move(grown);
    head_ = size_;  // < capacity: the buffer only grows
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == buf_.size(); }

  /// Element `i` counted from the oldest (0) to the newest (size()-1).
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    NEXTGOV_ASSERT(i < size_);
    // head_ < capacity and i < size_, so one wrap-around is the most needed.
    const std::size_t at = head_ + buf_.size() - size_ + i;
    return buf_[at < buf_.size() ? at : at - buf_.size()];
  }

  [[nodiscard]] const T& newest() const noexcept {
    NEXTGOV_ASSERT(size_ > 0);
    return (*this)[size_ - 1];
  }
  [[nodiscard]] const T& oldest() const noexcept {
    NEXTGOV_ASSERT(size_ > 0);
    return (*this)[0];
  }

  void clear() noexcept {
    size_ = 0;
    head_ = 0;
  }

  /// Copies contents oldest-first (for mode/stat computations).
  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  std::vector<T> buf_;
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace nextgov
