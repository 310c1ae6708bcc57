#include "trace/replay.h"

#include "sim/memo_cost.h"

namespace soc::trace {

ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost, sim::OpSource& source,
                              const sim::EngineConfig& config) {
  // One memo shared across all three scenarios: op durations depend only
  // on the cost model, so the measured run warms the cache for the
  // what-if replays.  (Ideal network bypasses the cost model inside the
  // engine and ideal balance rescales durations after evaluation, so the
  // cached values are identical across scenarios.)
  const sim::MemoCostModel memo(cost);
  const sim::CostModel& effective =
      cost.memoizable() ? static_cast<const sim::CostModel&>(memo) : cost;
  ScenarioRuns runs;
  sim::RecordingSource recording(source);
  {
    sim::Engine engine(placement, effective, config);
    runs.measured = engine.run(recording);
  }
  // The two what-ifs re-time the op sequence the measured run committed.
  const std::vector<sim::Program>& programs = recording.programs();
  {
    sim::Scenario scenario;
    scenario.ideal_network = true;
    sim::Engine engine(placement, effective, config, scenario);
    runs.ideal_network = engine.run(programs);
  }
  {
    sim::Scenario scenario;
    scenario.compute_scale = sim::ideal_balance_scales(runs.measured);
    sim::Engine engine(placement, effective, config, scenario);
    runs.ideal_balance = engine.run(programs);
  }
  return runs;
}

}  // namespace soc::trace
