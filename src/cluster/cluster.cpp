#include "cluster/cluster.h"

#include "common/error.h"
#include "obs/observers.h"
#include "prof/profile.h"
#include "prof/profiler.h"

namespace soc::cluster {

namespace {

workloads::BuildContext build_context(const ClusterConfig& config,
                                      const RunOptions& options) {
  workloads::BuildContext ctx;
  ctx.ranks = config.ranks;
  ctx.nodes = config.nodes;
  ctx.mem_model = options.mem_model;
  ctx.gpu_work_fraction = options.gpu_work_fraction;
  ctx.size_scale = options.size_scale;
  ctx.overlap_halos = options.overlap_halos;
  return ctx;
}

RunResult meter(const sim::RunStats& stats, const ClusterConfig& config,
                const ClusterCostModel& cost) {
  RunResult result;
  result.stats = stats;
  result.energy = power::measure_energy(stats, config.node.power,
                                        config.node.cpu_cores);
  result.counters = cost.synthesize_counters(stats);
  result.seconds = stats.seconds();
  result.gflops = stats.flops_per_second() / 1e9;
  result.joules = result.energy.joules;
  result.average_watts = result.energy.average_watts;
  result.mflops_per_watt = result.energy.mflops_per_watt(stats.total_flops);
  return result;
}

}  // namespace

void validate(const ClusterConfig& config) {
  SOC_REQUIRE(config.nodes >= 1, "need at least one node, got " +
                                     std::to_string(config.nodes));
  SOC_REQUIRE(
      config.ranks >= config.nodes && config.ranks % config.nodes == 0,
      std::to_string(config.ranks) + " ranks are not a positive multiple of " +
          std::to_string(config.nodes) + " nodes");
  SOC_REQUIRE(config.ranks / config.nodes <= config.node.cpu_cores,
              std::to_string(config.ranks / config.nodes) +
                  " ranks per node exceed the node's " +
                  std::to_string(config.node.cpu_cores) + " CPU cores");
}

sim::EngineConfig engine_config(const ClusterConfig& config,
                                const RunOptions& options) {
  sim::EngineConfig engine = options.engine;
  if (engine.bisection_bandwidth == 0.0) {
    engine.bisection_bandwidth = config.node.switch_config.bisection_bandwidth;
  }
  return engine;
}

const workloads::Workload& resolve_workload(
    const RunRequest& request, std::unique_ptr<workloads::Workload>& owned) {
  if (request.workload_ref != nullptr) return *request.workload_ref;
  SOC_CHECK(!request.workload.empty(),
            "RunRequest names no workload (set workload or workload_ref)");
  owned = workloads::make_workload(request.workload);
  return *owned;
}

RunResult run(const RunRequest& request, const workloads::Workload& workload,
              const ClusterCostModel& cost) {
  validate(request.config);
  // The engine pulls ops through the workload's stream (with any
  // scenario decorators layered on top), which generates them an outer
  // iteration at a time as ranks run dry.
  std::unique_ptr<sim::OpSource> stream = workloads::apply_scenarios(
      workload.stream(build_context(request.config, request.options)),
      request.scenario, request.config.nodes);
  // The engine evaluates the cluster model's closed forms directly; a
  // per-run cache of them measures slower than the formulas (DESIGN.md
  // §11).
  sim::Engine engine(
      sim::Placement::block(request.config.ranks, request.config.nodes),
      cost, engine_config(request.config, request.options));

  // Per-run profiling: the request's own profile sink composes with any
  // caller-attached observer, so sweep runs never share state.  With no
  // sink set, only the caller's observer (if any) is attached and the
  // engine's hot path is untouched.
  prof::Profiler profiler;
  obs::ObserverList observers;
  const bool want_profile = request.profile != nullptr;
  if (want_profile) {
    observers.add(request.options.observer);  // nullptr is ignored
    observers.add(&profiler);
  }
  engine.set_observer(want_profile ? &observers : request.options.observer);

  RunResult result = meter(engine.run(*stream), request.config, cost);
  if (want_profile) {
    prof::Profile profile = prof::analyze(profiler.trace());
    // The run owns the power config, so the energy attribution rides on
    // the profile (analyze() alone cannot compute it).
    profile.energy = prof::attribute_energy(
        profiler.trace(), request.config.node.power, request.config.node.cpu_cores);
    profile.has_energy = true;
    *request.profile = std::move(profile);
  }
  return result;
}

RunResult run(const RunRequest& request) {
  std::unique_ptr<workloads::Workload> owned;
  const workloads::Workload& workload = resolve_workload(request, owned);
  validate(request.config);
  const ClusterCostModel cost(request.config.node, request.config.nodes,
                              request.config.ranks, workload.cpu_profile());
  return run(request, workload, cost);
}

trace::ScenarioRuns replay_scenarios(const RunRequest& request,
                                     const workloads::Workload& workload,
                                     const ClusterCostModel& cost) {
  validate(request.config);
  const workloads::BuildContext ctx =
      build_context(request.config, request.options);
  const sim::Placement placement =
      sim::Placement::block(request.config.ranks, request.config.nodes);
  const sim::EngineConfig engine =
      engine_config(request.config, request.options);
  if (request.scenario.enabled()) {
    // Decorators sample the schedule they run under, so the ideal replays
    // re-time the op sequence the measured run committed, as DIMEMAS
    // re-times a measured trace: the measured run records what it pulls.
    // (A straggler alone does not depend on the schedule; it is recorded
    // too, so that the rule stays one condition.)
    std::unique_ptr<sim::OpSource> stream = workloads::apply_scenarios(
        workload.stream(ctx), request.scenario, request.config.nodes);
    return trace::replay_scenarios(placement, cost, *stream, engine);
  }
  // Without decorators the op sequence is a function of the workload and
  // its context alone, so each run pulls a fresh stream and nothing is
  // recorded: memory stays a few iterations of ops, as in cluster::run.
  const std::unique_ptr<sim::OpSource> measured = workload.stream(ctx);
  const std::unique_ptr<sim::OpSource> for_network = workload.stream(ctx);
  const std::unique_ptr<sim::OpSource> for_balance = workload.stream(ctx);
  return trace::replay_scenarios(placement, cost, *measured, *for_network,
                                 *for_balance, engine);
}

trace::ScenarioRuns replay_scenarios(const RunRequest& request) {
  std::unique_ptr<workloads::Workload> owned;
  const workloads::Workload& workload = resolve_workload(request, owned);
  validate(request.config);
  const ClusterCostModel cost(request.config.node, request.config.nodes,
                              request.config.ranks, workload.cpu_profile());
  return replay_scenarios(request, workload, cost);
}

}  // namespace soc::cluster
