// Trace replay scenarios (the DIMEMAS methodology of §III-B.4).
//
// The paper records Extrae traces on the real cluster and re-simulates
// them under (a) the real network, (b) an ideal network with zero latency
// and unlimited bandwidth, and (c) perfect load balance.  Our programs
// *are* the traces, so the scenarios are three replays of the same
// programs with different engine scenarios.
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

/// Runs all three scenarios over the same programs.
ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost,
                              const std::vector<sim::Program>& programs,
                              const sim::EngineConfig& config = {});

/// Stream form: the measured run pulls `source` through a recording tee,
/// and the two ideals replay the recorded programs.  This preserves
/// trace-replay semantics under time-dependent streams (fault/noise
/// decorators): the what-ifs re-time exactly the op sequence the
/// measured run committed, instead of re-sampling the decorators under
/// a different schedule.
ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost, sim::OpSource& source,
                              const sim::EngineConfig& config = {});

}  // namespace soc::trace
