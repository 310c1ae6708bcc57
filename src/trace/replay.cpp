#include "trace/replay.h"

#include "common/error.h"
#include "sim/memo_cost.h"

namespace soc::trace {

std::vector<double> ideal_balance_scales(const sim::RunStats& measured) {
  const std::size_t n = measured.ranks.size();
  SOC_CHECK(n > 0, "no ranks in run");
  std::vector<double> compute(n, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& [phase, t] : measured.ranks[r].phase_compute) {
      compute[r] += static_cast<double>(t);
    }
    total += compute[r];
  }
  const double avg = total / static_cast<double>(n);
  std::vector<double> scales(n, 1.0);
  for (std::size_t r = 0; r < n; ++r) {
    if (compute[r] > 0.0) scales[r] = avg / compute[r];
  }
  return scales;
}

namespace {

// The two what-if replays over an already-measured op sequence.
void replay_ideals(const sim::Placement& placement,
                   const sim::CostModel& effective,
                   const std::vector<sim::Program>& programs,
                   const sim::EngineConfig& config, ScenarioRuns& runs) {
  {
    sim::Scenario scenario;
    scenario.ideal_network = true;
    sim::Engine engine(placement, effective, config, scenario);
    runs.ideal_network = engine.run(programs);
  }
  {
    sim::Scenario scenario;
    scenario.compute_scale = ideal_balance_scales(runs.measured);
    sim::Engine engine(placement, effective, config, scenario);
    runs.ideal_balance = engine.run(programs);
  }
}

}  // namespace

ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost,
                              const std::vector<sim::Program>& programs,
                              const sim::EngineConfig& config) {
  // One memo shared across all three scenarios: op durations depend only
  // on the cost model, so the measured replay warms the cache for the
  // what-if replays.  (Ideal network bypasses the cost model inside the
  // engine and ideal balance rescales durations after evaluation, so the
  // cached values are identical across scenarios.)
  const sim::MemoCostModel memo(cost);
  const sim::CostModel& effective =
      cost.memoizable() ? static_cast<const sim::CostModel&>(memo) : cost;
  ScenarioRuns runs;
  {
    sim::Engine engine(placement, effective, config);
    runs.measured = engine.run(programs);
  }
  replay_ideals(placement, effective, programs, config, runs);
  return runs;
}

ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost, sim::OpSource& source,
                              const sim::EngineConfig& config) {
  const sim::MemoCostModel memo(cost);
  const sim::CostModel& effective =
      cost.memoizable() ? static_cast<const sim::CostModel&>(memo) : cost;
  ScenarioRuns runs;
  sim::RecordingSource recording(source);
  {
    sim::Engine engine(placement, effective, config);
    runs.measured = engine.run(recording);
  }
  replay_ideals(placement, effective, recording.programs(), config, runs);
  return runs;
}

}  // namespace soc::trace
