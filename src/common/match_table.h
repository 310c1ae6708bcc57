// Exact-key FIFO message matching.
//
// The replay engine (sim/engine.cpp) and the profiler's matching pass
// (prof/profiler.cpp) pair message endpoints the same way: first in,
// first out per exact (src, dst, tag) key.  MatchTable is that one
// mechanism.  A key lives in the table only while it has a queued value
// — take() erases it the moment its FIFO drains — so table size tracks
// in-flight messages, not messages ever sent, and an entry left at the
// end of a run is by definition an endpoint nobody matched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/error.h"
#include "common/flat_map.h"
#include "common/ring_queue.h"

namespace soc {

/// The message-matching key: every field is compared exactly, so distinct
/// tags on one channel never share a queue.
struct MsgKey {
  int src = 0;
  int dst = 0;
  int tag = 0;
  bool operator==(const MsgKey&) const = default;
};

struct MsgKeyHash {
  std::uint64_t operator()(const MsgKey& k) const {
    const std::uint64_t channel =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src)) << 32) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.dst));
    return FlatMapHash<std::uint64_t>{}(
        channel ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.tag)) *
                   0x9e3779b97f4a7c15ull));
  }
};

/// Per-key FIFOs of parked message endpoints.
template <typename V>
class MatchTable {
 public:
  bool empty() const { return queues_.empty(); }
  /// Keys with at least one queued value.
  std::size_t size() const { return queues_.size(); }

  void clear() { queues_.clear(); }
  void reserve(std::size_t keys) { queues_.reserve(keys); }

  /// Queues `value` behind every earlier value for `key`.
  void push(const MsgKey& key, V value) {
    queues_[key].push_back(std::move(value));
  }

  /// Pops the oldest value queued for `key` into `*out` and returns true,
  /// or returns false when none is queued.  Erases the key once its queue
  /// drains.
  bool take(const MsgKey& key, V* out) {
    RingQueue<V>* queue = queues_.find(key);
    if (queue == nullptr) return false;
    *out = std::move(queue->front());
    queue->pop_front();
    if (queue->empty()) queues_.erase(key);
    return true;
  }

  /// A key that still has a queued value (the first in iteration order);
  /// for diagnostics about endpoints left unmatched.
  const MsgKey& any_key() const {
    SOC_CHECK(!queues_.empty(), "any_key of an empty match table");
    return queues_.begin()->first;
  }

 private:
  flat_map<MsgKey, RingQueue<V>, MsgKeyHash> queues_;
};

}  // namespace soc
