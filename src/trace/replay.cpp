#include "trace/replay.h"

#include "common/parallel.h"

namespace soc::trace {

namespace {

/// Ideal balance: every op rank r pulls takes scales[r] times as long.
class BalancedSource final : public sim::OpSource {
 public:
  BalancedSource(sim::OpSource& inner, const std::vector<double>& scales)
      : inner_(inner), scales_(scales) {}

  int ranks() const override { return inner_.ranks(); }

  bool next(int rank, SimTime now, sim::Op* op) override {
    if (!inner_.next(rank, now, op)) return false;
    op->time_scale *= scales_[static_cast<std::size_t>(rank)];
    return true;
  }

 private:
  sim::OpSource& inner_;
  const std::vector<double>& scales_;
};

}  // namespace

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
  // Each is a whole single-threaded run over the read-only recording that
  // writes its own slot, so they run concurrently (DESIGN.md §10).
  const std::vector<sim::Program>& programs = recording.programs();
  const std::vector<double> scales = sim::ideal_balance_scales(runs.measured);
  parallel_for(2, [&](std::size_t i) {
    sim::ProgramSource replay(programs);
    if (i == 0) {
      runs.ideal_network =
          replay_ideal_network(placement, cost, replay, config);
    } else {
      BalancedSource balanced(replay, scales);
      sim::Engine engine(placement, cost, config);
      runs.ideal_balance = engine.run(balanced);
    }
  });
  return runs;
}

}  // namespace soc::trace
