// Critical-path profiler, stage 1: trace reconstruction.
//
// Profiler is an EngineObserver that reconstructs ONE instrumented run's
// dependency DAG as a RunTrace while the engine commits it: one OpExec
// per executed op, with its wall-clock window, when its resource lane
// (cpu/gpu/copy span) began serving it, and — for message ops — the
// committed MessageRecord plus the matching edge to the partner op.
//
// The reconstruction replays the engine's message-matching state machine
// over the dispatch/message commit stream in the order the callbacks
// deliver it (eager vs rendezvous, arrivals before parked senders, FIFO
// per (src, dst, tag) key), so every annotation is exact, not heuristic:
// downstream passes assert that reconstructed completion times tile the
// run with zero residual.  Everything here is derived from the
// deterministic committed event stream, so equal configurations produce
// byte-identical traces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/chunked_vector.h"
#include "common/match_table.h"
#include "obs/observers.h"
#include "sim/engine.h"
#include "sim/op.h"
#include "sim/stats.h"

namespace soc::prof {

/// One reconstructed op execution: a node of the dependency DAG.
///
/// Only what no consumer can derive is stored, so a profiled run's
/// trace costs 64 bytes per op:
/// - the node is `placement.node_of[rank]`;
/// - a lane op's service ends at `complete` (the Profiler checks it);
/// - a message op's partner became ready at `ops[partner].dispatch`.
///   That is at most `dispatch` when the partner acted first, and later
///   exactly when this op parked waiting for it.
struct OpExec {
  Bytes bytes = 0;
  SimTime dispatch = 0;  ///< First dispatch time (the op's window start).
  SimTime complete = 0;  ///< The rank's next dispatch (the window end).
  /// Lane-backed ops (cpu/gpu/copy): when the lane began serving it;
  /// busy_start - dispatch is queue wait on the node's shared lane.
  SimTime busy_start = 0;
  int rank = 0;
  int phase = 0;
  int peer = -1;   ///< Partner rank (message ops).
  int tag = 0;     ///< Message tag (message ops).
  // Message-backed ops: the committed transfer and the matching edge.
  int msg = -1;      ///< Index into RunTrace::messages (-1 = none).
  int partner = -1;  ///< Global index of the matching endpoint's op.
  /// kWaitAll only: the request op (global index) whose completion set
  /// this wait's finish time; -1 when the wait completed instantly.
  int determinant = -1;
  sim::OpKind kind = sim::OpKind::kCpuCompute;
};
static_assert(sizeof(OpExec) <= 64,
              "one OpExec per op sets a profiled run's peak RSS");

/// Everything the attribution and energy passes need from one observed
/// run.
/// The op and message records go into chunked storage: a run appends
/// about a million of them, and doubling a vector would hold up to twice
/// their size (three times while it copies).
struct RunTrace {
  sim::Placement placement;
  sim::EngineConfig config;
  sim::RunStats stats;
  ChunkedVector<sim::MessageRecord> messages;  ///< In commit order.
  ChunkedVector<OpExec> ops;                   ///< In first-dispatch order.
  std::vector<std::vector<int>> rank_ops;      ///< Per-rank program order.
  std::vector<SimTime> finish;                 ///< Per-rank drain time.
  obs::LaneUsage usage;  ///< Per-lane busy/blocked totals.
};

/// EngineObserver that builds the RunTrace as the run commits.
/// Reusable across runs (each on_run_begin resets); attach via
/// Engine::set_observer or cluster::RunRequest's profile sinks.
class Profiler : public sim::EngineObserver {
 public:
  void on_run_begin(const sim::Placement& placement,
                    const sim::EngineConfig& config) override;
  void on_dispatch(const sim::DispatchRecord& record) override;
  void on_span(const sim::SpanRecord& span) override;
  void on_message(const sim::MessageRecord& message) override;
  void on_run_end(const sim::RunStats& stats) override;

  /// The reconstructed trace; valid once a run has ended.
  const RunTrace& trace() const;

 private:
  /// An eager message parked at the receiver: the sender's op plus the
  /// already-committed transfer.
  struct ArrivalRef {
    int op = -1;
    int msg = -1;
  };

  RunTrace trace_;
  /// Per rank: the op whose window is open (-1 = none yet, or drained),
  /// its program index (a parked kWaitAll re-dispatches with the same
  /// one), and where its lane span ended (0 = no span yet).
  std::vector<int> open_;
  std::vector<std::int32_t> open_pc_;
  std::vector<SimTime> open_span_end_;
  // Endpoints parked per (src, dst, tag) key, FIFO like the engine's.
  MatchTable<int> eager_sends_;
  MatchTable<int> rvz_sends_;
  MatchTable<int> pending_recvs_;
  MatchTable<int> pending_irecvs_;
  MatchTable<ArrivalRef> arrivals_;
  bool built_ = false;
};

}  // namespace soc::prof
