#include "trace/replay.h"

#include "sim/memo_cost.h"

namespace soc::trace {

namespace {

/// `inner` with free messages: every latency and transfer time is zero.
/// Compute, copy and per-message CPU overheads pass through.
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
  // One memo shared across all three scenarios: op durations depend only
  // on the cost model, so the measured run warms the cache for the
  // what-if replays.  (The ideal network overrides only message costs,
  // and ideal balance stretches durations after evaluation, so the
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
  std::vector<sim::Program>& programs = recording.programs();
  {
    sim::ProgramSource replay(programs);
    runs.ideal_network =
        replay_ideal_network(placement, effective, replay, config);
  }
  // Ideal balance rewrites the recording in place (it is not needed
  // afterwards): every op of rank r takes scales[r] times as long.
  const std::vector<double> scales = sim::ideal_balance_scales(runs.measured);
  for (std::size_t r = 0; r < programs.size(); ++r) {
    for (sim::Op& op : programs[r]) op.time_scale *= scales[r];
  }
  {
    sim::Engine engine(placement, effective, config);
    runs.ideal_balance = engine.run(programs);
  }
  return runs;
}

}  // namespace soc::trace
