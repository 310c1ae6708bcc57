// Pooled ring-buffer FIFO with inline small-buffer storage.
//
// The per-key FIFO of soc::MatchTable (the pending-message tables).
// Message tags are allocated monotonically (msg::ProgramSet never reuses
// one), so nearly every (src, dst, tag) key queues at most one endpoint
// before it matches, and MatchTable erases the key as soon as its queue
// drains.  A deque would heap-allocate a node per parked endpoint, which
// makes steady-state replay churn the allocator once per message.  This
// ring holds its first kInlineCapacity elements inside the object — that
// is, inside the table's entry vector, whose capacity is kept — so in
// steady state parking and matching a message allocates nothing.  Only
// a key with more endpoints queued at once spills to the heap; the spill
// buffer is retained across pop/clear and freed when the table erases
// the key.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.h"

namespace soc {

/// Single-ended FIFO over a power-of-two circular buffer.  pop_front()
/// and clear() retain capacity; growth copies in FIFO order, so element
/// order never depends on buffer geometry.
template <typename T>
class RingQueue {
 public:
  /// Depth served by the in-object buffer (no heap allocation).
  static constexpr std::size_t kInlineCapacity = 2;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Drops all elements but keeps the buffer.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(capacity_for(n));
  }

  void push_back(T value) {
    if (size_ == capacity_) grow(capacity_for(size_ + 1));
    data()[(head_ + size_) & (capacity_ - 1)] = std::move(value);
    ++size_;
  }

  T& front() {
    SOC_CHECK(size_ > 0, "front of empty ring queue");
    return data()[head_];
  }
  const T& front() const {
    SOC_CHECK(size_ > 0, "front of empty ring queue");
    return data()[head_];
  }

  void pop_front() {
    SOC_CHECK(size_ > 0, "pop from empty ring queue");
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

 private:
  static_assert((kInlineCapacity & (kInlineCapacity - 1)) == 0,
                "inline capacity must be a power of two");

  static std::size_t capacity_for(std::size_t n) {
    std::size_t cap = kInlineCapacity;
    while (cap < n) cap *= 2;
    return cap;
  }

  T* data() { return capacity_ == kInlineCapacity ? inline_.data() : spill_.data(); }
  const T* data() const {
    return capacity_ == kInlineCapacity ? inline_.data() : spill_.data();
  }

  void grow(std::size_t new_capacity) {
    std::vector<T> grown(new_capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(data()[(head_ + i) & (capacity_ - 1)]);
    }
    spill_ = std::move(grown);
    capacity_ = new_capacity;
    head_ = 0;
  }

  std::array<T, kInlineCapacity> inline_{};
  std::vector<T> spill_;
  std::size_t capacity_ = kInlineCapacity;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace soc
