#include "trace/replay.h"

namespace soc::trace {

sim::RunStats replay_ideal_network(const sim::Placement& placement,
                                   const sim::CostModel& cost,
                                   sim::OpSource& source,
                                   const sim::EngineConfig& config) {
  const IdealNetworkCost free_messages(cost);
  sim::EngineConfig unlimited_switch = config;
  unlimited_switch.bisection_bandwidth = 0.0;
  sim::Engine engine(placement, free_messages, unlimited_switch);
  return engine.run(source);
}

ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost, sim::OpSource& source,
                              const sim::EngineConfig& config) {
  ScenarioRuns runs;
  sim::RecordingSource recording(source);
  {
    sim::Engine engine(placement, cost, config);
    runs.measured = engine.run(recording);
  }
  // The two what-ifs re-time the op sequence the measured run committed.
  std::vector<sim::Program>& programs = recording.programs();
  {
    sim::ProgramSource replay(programs);
    runs.ideal_network =
        replay_ideal_network(placement, cost, replay, config);
  }
  // Ideal balance rewrites the recording in place (it is not needed
  // afterwards): every op of rank r takes scales[r] times as long.
  const std::vector<double> scales = sim::ideal_balance_scales(runs.measured);
  for (std::size_t r = 0; r < programs.size(); ++r) {
    for (sim::Op& op : programs[r]) op.time_scale *= scales[r];
  }
  {
    sim::Engine engine(placement, cost, config);
    runs.ideal_balance = engine.run(programs);
  }
  return runs;
}

}  // namespace soc::trace
