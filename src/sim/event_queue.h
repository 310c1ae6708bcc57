// Deterministic event queue.
//
// Events are ordered by an *intrinsic* 64-bit key, never by insertion
// order: ties at equal times break on a key derived from the event's
// identity (protocol class, endpoint ranks, per-rank sequence; see
// engine.cpp's key helpers).  Keys are unique among coexisting events, so
// (time, key) is a strict total order and the pop sequence is a pure
// function of the set of pushed events, whatever order they were pushed
// in.  The engine schedules through it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace soc::sim {

struct KeyedEvent {
  SimTime time = 0;
  std::uint64_t key = 0;
  std::int32_t payload = 0;  ///< Rank for wake-ups; proto-pool slot for
                             ///< protocol messages (engine convention).
};

/// 4-ary min-heap keyed by (time, key).  A node's four children sit side
/// by side, so the heap is half as deep as a binary one for about the
/// same cache lines per level, and sifts move elements through a hole
/// instead of swapping them.  push and pop are inline: they are the
/// engine's two most frequent calls.
class KeyedEventQueue {
 public:
  /// Schedules an event; `time` must be non-negative.
  void push(SimTime time, std::uint64_t key, std::int32_t payload);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Pre-sizes heap storage (allocation hint only).
  void reserve(std::size_t n) { heap_.reserve(n); }

  void clear() { heap_.clear(); }

  /// Returns and removes the earliest event.  Queue must be non-empty.
  KeyedEvent pop();

  /// Earliest scheduled (time, key); queue must be non-empty.
  const KeyedEvent& top() const { return heap_.front(); }

 private:
  using Rank = unsigned __int128;

  /// Strict (time, key) ordering — the determinism contract — as one
  /// unsigned 128-bit value, so a comparison is a branch-free
  /// compare-with-borrow.  Times are non-negative (push checks), so the
  /// unsigned view keeps their order.
  static Rank rank_of(const KeyedEvent& e) {
    return (static_cast<Rank>(static_cast<std::uint64_t>(e.time)) << 64) |
           e.key;
  }

  static constexpr std::size_t kArity = 4;

  std::vector<KeyedEvent> heap_;  ///< 4-ary min-heap by (time, key).
};

inline void KeyedEventQueue::push(SimTime time, std::uint64_t key,
                                  std::int32_t payload) {
  SOC_CHECK(time >= 0, "event scheduled at negative time");
  const KeyedEvent e{time, key, payload};
  const Rank rank = rank_of(e);
  // Sift up: parents later than `e` move down into the hole.
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!(rank < rank_of(heap_[parent]))) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

inline KeyedEvent KeyedEventQueue::pop() {
  SOC_CHECK(!empty(), "pop from empty event queue");
  const KeyedEvent top = heap_.front();
  const KeyedEvent last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Sift `last` down from the root: the earliest child moves up into the
  // hole until no child is earlier than `last`.
  const Rank rank = rank_of(last);
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    Rank best_rank = rank_of(heap_[first]);
    for (std::size_t c = first + 1; c < end; ++c) {
      const Rank r = rank_of(heap_[c]);
      const bool earlier = r < best_rank;
      best = earlier ? c : best;
      best_rank = earlier ? r : best_rank;
    }
    if (!(best_rank < rank)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  return top;
}

}  // namespace soc::sim
