// Deterministic event queue.
//
// Events are ordered by an *intrinsic* 64-bit key, never by insertion
// order: ties at equal times break on a key derived from the event's
// identity (protocol class, endpoint ranks, per-rank sequence; see
// engine.cpp's key helpers).  Keys are unique among coexisting events, so
// (time, key) is a strict total order and the pop sequence is a pure
// function of the set of pushed events, whatever order they were pushed
// in.  The engine and the what-if evaluator both schedule through it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace soc::sim {

struct KeyedEvent {
  SimTime time = 0;
  std::uint64_t key = 0;
  std::int32_t payload = 0;  ///< Rank for wake-ups; proto-pool slot for
                             ///< protocol messages (engine convention).
};

/// Binary min-heap keyed by (time, key).
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
  /// Strict (time, key) ordering — the determinism contract.
  static bool earlier(const KeyedEvent& a, const KeyedEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<KeyedEvent> heap_;  ///< Binary min-heap by (time, key).
};

}  // namespace soc::sim
