// Critical-path profiler, stage 2: attribution.
//
// Every op window [dispatch, complete) decomposes into contiguous
// segments, each tagged with a Category saying where that wall time went
// (lane busy, lane queueing, message overhead, NIC/fabric queueing, wire
// transfer, or parked waiting for a partner).  Per rank the segments tile
// [0, makespan] exactly — integer nanoseconds, zero residual — which the
// attribution pass asserts.
//
// The critical path is extracted by walking backward from the run's final
// event: at each step the segment ending at the cursor is attributed,
// except parked ("blocked") segments, which transfer the cursor to the
// partner rank whose dispatch ended the wait — the cause of blocked time
// is whatever the partner was doing, and the walk attributes that
// instead.  The walked steps therefore also tile [0, makespan] exactly.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <vector>

#include "prof/profiler.h"

namespace soc::prof {

/// Where one segment of a rank's wall time went.
enum class Category : std::uint8_t {
  kCompute = 0,   ///< Host compute (cpu lane busy).
  kGpuWait,       ///< Queued behind the node's shared GPU.
  kGpuBusy,       ///< Kernel executing on the GPU.
  kCopyWait,      ///< Queued behind the node's copy engine.
  kCopyBusy,      ///< Host<->device copy in flight.
  kSendOverhead,  ///< Per-message CPU send overhead.
  kRecvOverhead,  ///< Per-message CPU receive overhead.
  kNicWait,       ///< Transfer matched but queued on NIC/fabric.
  kTransfer,      ///< Message latency + bytes on the wire.
  kBlockedSend,   ///< Parked in a rendezvous send; no receiver yet.
  kBlockedRecv,   ///< Parked in a receive; nothing sent yet.
  kBlockedWait,   ///< Parked in kWaitAll on an unresolved request.
  kInjected,      ///< Scenario-injected stall (fault downtime, OS noise,
                  ///< checkpoint I/O) occupying the host.
  kIdle,          ///< Rank drained before the run's makespan.
  kCount,
};

inline constexpr std::size_t kCategoryCount =
    static_cast<std::size_t>(Category::kCount);

/// Stable identifier ("compute", "gpu-wait", ..., "idle").
const char* category_name(Category category);

/// Coarse rollup for the per-lane attribution: "cpu", "gpu", "copy",
/// "nic", "blocked", or "idle".
const char* category_lane(Category category);

/// One attributed step of the critical path (forward time order).
struct PathStep {
  Category category = Category::kCompute;
  int rank = 0;
  int phase = 0;
  SimTime begin = 0;
  SimTime end = 0;

  bool operator==(const PathStep&) const = default;
};

/// The extracted critical path with its attribution rollups.  The steps
/// tile [0, makespan]: total == stats.makespan with zero residual.
struct CriticalPath {
  std::vector<PathStep> steps;
  std::array<SimTime, kCategoryCount> by_category{};
  std::map<int, SimTime> by_phase;
  std::vector<SimTime> by_rank;
  SimTime total = 0;

  bool operator==(const CriticalPath&) const = default;
};

/// Full-timeline decomposition of one rank; the categories sum to the
/// run's makespan exactly (kIdle covers early finishers).
struct RankProfile {
  std::array<SimTime, kCategoryCount> by_category{};

  bool operator==(const RankProfile&) const = default;
};

struct Attribution {
  CriticalPath path;
  std::vector<RankProfile> rank_profiles;  ///< One per rank.

  bool operator==(const Attribution&) const = default;
};

/// Decomposes the trace into segments and walks the critical path.
Attribution attribute(const RunTrace& trace);

}  // namespace soc::prof
