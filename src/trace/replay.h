// Trace replay scenarios (the DIMEMAS methodology of §III-B.4).
//
// The paper records Extrae traces on the real cluster and re-simulates
// them under (a) the real network, (b) an ideal network with zero latency
// and unlimited bandwidth, and (c) perfect load balance.  Here the two
// ideal scenarios run concurrently after the measured run, each over its
// own source of the same op sequence: three fresh streams when the ops
// depend only on the workload, or two walks over a recording of what the
// measured run pulled when they depend on its schedule.  Both ideals are
// built from pieces the plain engine already has, so it needs no what-if
// mode: the ideal network is a cost model whose messages are free plus an
// unlimited switch, and ideal balance multiplies each op's Op::time_scale
// by its rank's sim::ideal_balance_scales factor as the replay pulls it.
#pragma once

#include <vector>

#include "sim/engine.h"

namespace soc::trace {

/// The three replays the scalability analysis consumes.
struct ScenarioRuns {
  sim::RunStats measured;      ///< Real network, real load.
  sim::RunStats ideal_network; ///< Zero latency, unlimited bandwidth.
  sim::RunStats ideal_balance; ///< Per-rank compute scaled to the average
                               ///< (real network, per the paper: "we used
                               ///< the traces with the real network").
};

/// `inner` with free messages: every latency and transfer time is zero.
/// Compute, copy and per-message CPU overheads pass through.  The ideal
/// network is an engine over this model with an unlimited switch.
class IdealNetworkCost final : public sim::CostModel {
 public:
  explicit IdealNetworkCost(const sim::CostModel& inner) : inner_(inner) {}

  SimTime cpu_compute_time(int rank, const sim::Op& op) const override {
    return inner_.cpu_compute_time(rank, op);
  }
  SimTime gpu_kernel_time(int rank, const sim::Op& op) const override {
    return inner_.gpu_kernel_time(rank, op);
  }
  SimTime copy_time(int rank, const sim::Op& op) const override {
    return inner_.copy_time(rank, op);
  }
  SimTime message_latency(int, int) const override { return 0; }
  SimTime message_transfer_time(int, int, Bytes) const override { return 0; }
  SimTime send_overhead(int rank) const override {
    return inner_.send_overhead(rank);
  }
  SimTime recv_overhead(int rank) const override {
    return inner_.recv_overhead(rank);
  }

 private:
  const sim::CostModel& inner_;
};

/// Runs `source` under the ideal network: every message has zero latency
/// and zero transfer time, and the switch is unlimited
/// (`bisection_bandwidth = 0`).  Message overheads, lane contention and
/// every dependency remain.
sim::RunStats replay_ideal_network(const sim::Placement& placement,
                                   const sim::CostModel& cost,
                                   sim::OpSource& source,
                                   const sim::EngineConfig& config = {});

/// Runs all three scenarios over a one-shot `source`: the measured run
/// pulls it through a sim::RecordingSource, and the two ideals replay the
/// recorded programs.  This preserves trace-replay semantics under
/// time-dependent streams (fault/noise decorators): the what-ifs re-time
/// exactly the op sequence the measured run committed, instead of
/// re-sampling the decorators under a different schedule.  The recording
/// holds every op the run pulls (80 bytes each).  To replay pre-built
/// programs, pass a sim::ProgramSource over them.
///
/// The two ideal replays run at the same time through soc::parallel_for
/// (inline when called from inside a parallel_for task), so they share
/// `cost` from two threads: its const calls must be safe to make
/// concurrently, as cluster::ClusterCostModel's are.  sim::MemoCostModel's
/// are not.  If both replays throw, the ideal network's error is rethrown.
ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost, sim::OpSource& source,
                              const sim::EngineConfig& config = {});

/// Streamed form, which records nothing: `measured`, `for_network` and
/// `for_balance` are three fresh sources over the same op sequence, one
/// for each run.  Use it only when that sequence does not depend on the
/// schedule it is pulled under (an undecorated Workload::stream(), or
/// pre-built programs); otherwise the ideals would not re-time what the
/// measured run committed.  `measured` runs first on the calling thread,
/// then the two ideals run as in the one-shot form, so `for_network`'s
/// and `for_balance`'s next() may be called on helper threads, each
/// source from one thread only.  Same concurrency rules for `cost`.
ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost,
                              sim::OpSource& measured,
                              sim::OpSource& for_network,
                              sim::OpSource& for_balance,
                              const sim::EngineConfig& config = {});

}  // namespace soc::trace
