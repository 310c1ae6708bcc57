#include "trace/replay.h"

#include <utility>

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

sim::RunStats run_engine(const sim::Placement& placement,
                         const sim::CostModel& cost, sim::OpSource& source,
                         const sim::EngineConfig& config) {
  sim::Engine engine(placement, cost, config);
  return engine.run(source);
}

// The two what-ifs, given the measured run's stats: each is a whole
// single-threaded engine run over its own source that writes its own
// slot, so they run concurrently (DESIGN.md §10).
ScenarioRuns replay_ideals(const sim::Placement& placement,
                           const sim::CostModel& cost, sim::RunStats measured,
                           sim::OpSource& for_network,
                           sim::OpSource& for_balance,
                           const sim::EngineConfig& config) {
  ScenarioRuns runs;
  runs.measured = std::move(measured);
  const std::vector<double> scales = sim::ideal_balance_scales(runs.measured);
  parallel_for(2, [&](std::size_t i) {
    if (i == 0) {
      runs.ideal_network =
          replay_ideal_network(placement, cost, for_network, config);
    } else {
      BalancedSource balanced(for_balance, scales);
      runs.ideal_balance = run_engine(placement, cost, balanced, config);
    }
  });
  return runs;
}

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
  sim::RecordingSource recording(source);
  sim::RunStats measured = run_engine(placement, cost, recording, config);
  // The what-ifs re-time the op sequence the measured run committed, each
  // through its own walk of the read-only recording.
  sim::ProgramSource for_network(recording.programs());
  sim::ProgramSource for_balance(recording.programs());
  return replay_ideals(placement, cost, std::move(measured), for_network,
                       for_balance, config);
}

ScenarioRuns replay_scenarios(const sim::Placement& placement,
                              const sim::CostModel& cost,
                              sim::OpSource& measured,
                              sim::OpSource& for_network,
                              sim::OpSource& for_balance,
                              const sim::EngineConfig& config) {
  return replay_ideals(placement, cost,
                       run_engine(placement, cost, measured, config),
                       for_network, for_balance, config);
}

}  // namespace soc::trace
