// Run statistics collected by the engine.
//
// Everything the analysis layers need comes out of here: per-rank time
// breakdowns and phase compute times (efficiency decomposition), traffic
// volumes (Fig 3 and the roofline), per-profile instruction tallies
// (PMU-counter synthesis), and per-node component-busy timelines (the
// power model's input).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.h"

namespace soc::sim {

/// Per-rank accounting.
struct RankStats {
  SimTime finish_time = 0;       ///< When the rank's program completed.
  SimTime cpu_busy = 0;          ///< Host compute time.
  /// Kernel execution time only: the sum of (end - start) of this rank's
  /// kernels on the node's GPU.  Queueing is NOT included — a kernel that
  /// waits for the shared GPU accrues that wait in `gpu_queue_wait`, so
  /// for any rank the GPU-related wall time is gpu_busy + gpu_queue_wait
  /// and the two never overlap.
  SimTime gpu_busy = 0;
  /// Time between a kernel's dispatch and its start on the node's GPU
  /// (co-located ranks serialize on the one device).  Disjoint from
  /// `gpu_busy`; zero when the rank has the GPU to itself.
  SimTime gpu_queue_wait = 0;
  SimTime copy_busy = 0;         ///< Host<->device copy time.
  SimTime send_blocked = 0;      ///< Time blocked in sends.
  SimTime recv_blocked = 0;      ///< Time blocked in receives.
  SimTime msg_overhead = 0;      ///< Per-message CPU overheads.

  Bytes net_bytes_sent = 0;      ///< Inter-node bytes sent.
  Bytes net_bytes_received = 0;  ///< Inter-node bytes received.
  Bytes intra_bytes_sent = 0;    ///< Intra-node message bytes.
  Bytes dram_bytes = 0;          ///< DRAM traffic (CPU + GPU + copies).
  Bytes gpu_dram_bytes = 0;      ///< DRAM traffic caused by GPU kernels/copies.
  double flops = 0.0;            ///< FLOPs executed (CPU + GPU).
  double gpu_flops = 0.0;        ///< FLOPs executed on the GPU.
  double instructions = 0.0;     ///< Host instructions retired.
  int messages_sent = 0;
  int messages_received = 0;

  /// Useful (compute) time per phase — load balance is derived from this.
  std::map<int, SimTime> phase_compute;
  /// Host instructions per microarchitectural profile id.
  std::map<int, double> instructions_by_profile;

  bool operator==(const RankStats&) const = default;
};

/// Width of the busy-time timeline bins (the power model's input).
inline constexpr double kTimelineBinSeconds = 0.1;

/// Busy-time timelines for one node, binned at kTimelineBinSeconds.
/// Values are busy seconds within the bin (cpu may exceed 1 bin-width ×
/// 1.0 when several ranks share the node — it counts core-seconds).
struct NodeTimeline {
  std::vector<double> cpu_busy;
  std::vector<double> gpu_busy;
  std::vector<double> nic_busy;
  std::vector<double> dram_bytes;  ///< Bytes moved per bin.

  bool operator==(const NodeTimeline&) const = default;
};

/// Aggregate result of one engine run.
struct RunStats {
  SimTime makespan = 0;
  std::vector<RankStats> ranks;
  std::vector<NodeTimeline> nodes;

  // -- Aggregates (sums over ranks), computed by the engine at finish. --
  Bytes total_net_bytes = 0;
  Bytes total_dram_bytes = 0;
  Bytes total_gpu_dram_bytes = 0;
  double total_flops = 0.0;
  double total_gpu_flops = 0.0;

  // -- Determinism audit (see DESIGN.md, "Correctness tooling"). --
  /// Order-sensitive FNV-1a digest over the committed event stream: every
  /// (time, rank, op kind, bytes) dispatch the engine performs, in order.
  /// Replays of the same (programs, cost model, scenario) triple must
  /// produce bit-identical values; tests/determinism_test.cpp and
  /// `socbench audit` enforce this.
  std::uint64_t event_checksum = 0;
  /// Number of records folded into `event_checksum`.
  std::uint64_t events_committed = 0;

  /// Wall-clock seconds of the simulated run.
  double seconds() const { return to_seconds(makespan); }
  /// Achieved FLOP/s across the whole run.
  double flops_per_second() const;
  /// Average DRAM traffic rate in bytes/s.
  double dram_bytes_per_second() const;
  /// Average inter-node network traffic rate in bytes/s.
  double net_bytes_per_second() const;

  bool operator==(const RunStats&) const = default;
};

}  // namespace soc::sim
