#include "cluster/cluster.h"

#include "cluster/report.h"
#include "common/error.h"
#include "obs/observers.h"
#include "prof/profile.h"
#include "prof/profiler.h"
#include "sim/memo_cost.h"
#include "workloads/op_stream.h"

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

sim::EngineConfig engine_config(const ClusterConfig& config,
                                const RunOptions& options) {
  sim::EngineConfig engine = options.engine;
  if (engine.bisection_bandwidth == 0.0) {
    engine.bisection_bandwidth = config.node.switch_config.bisection_bandwidth;
  }
  return engine;
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
  std::unique_ptr<workloads::OpStream> stream = workloads::apply_scenarios(
      workload.stream(build_context(request.config, request.options)),
      request.scenario, request.config.nodes);
  // The cluster model is memoizable (pure tables after construction), so
  // repeated op shapes hit a cache instead of re-deriving durations.
  // Subclasses that override costs rank-dependently opt out via
  // memoizable() and are used directly.
  const sim::MemoCostModel memo(cost);
  const sim::CostModel& effective =
      cost.memoizable() ? static_cast<const sim::CostModel&>(memo) : cost;
  sim::Engine engine(
      sim::Placement::block(request.config.ranks, request.config.nodes),
      effective, engine_config(request.config, request.options));

  // Per-run observability: the request's own metrics/profile sinks
  // compose with any caller-attached observer, so sweep runs never share
  // state.  With no sinks set, no observer is attached and the engine's
  // hot path is untouched.
  obs::MetricsObserver metrics_observer;
  prof::Profiler profiler;
  obs::ObserverList observers;
  const bool want_metrics =
      request.metrics != nullptr || !request.report_path.empty();
  const bool want_profile = request.profile != nullptr ||
                            !request.profile_json_path.empty() ||
                            !request.profile_folded_path.empty() ||
                            request.run_trace != nullptr;
  sim::EngineObserver* observer = request.options.observer;
  {
    int attached = observer != nullptr ? 1 : 0;
    if (want_metrics) ++attached;
    if (want_profile) ++attached;
    if (attached > 1) {
      if (request.options.observer != nullptr) {
        observers.add(request.options.observer);
      }
      if (want_metrics) observers.add(&metrics_observer);
      if (want_profile) observers.add(&profiler);
      observer = &observers;
    } else if (want_metrics) {
      observer = &metrics_observer;
    } else if (want_profile) {
      observer = &profiler;
    }
  }
  engine.set_observer(observer);

  RunResult result = meter(engine.run(*stream), request.config, cost);
  if (request.metrics != nullptr) *request.metrics = metrics_observer.registry();
  if (!request.report_path.empty()) {
    write_report(request.report_path, request.config, request.options,
                 workload.name(), result,
                 want_metrics ? &metrics_observer.registry() : nullptr,
                 &request.scenario);
  }
  if (want_profile) {
    prof::Profile profile = prof::analyze(profiler.trace());
    // The run owns the power config, so the energy attribution rides on
    // the profile (analyze() alone cannot compute it).
    profile.energy = prof::attribute_energy(
        profiler.trace(), request.config.node.power, request.config.node.cpu_cores);
    profile.has_energy = true;
    if (request.run_trace != nullptr) *request.run_trace = profiler.trace();
    if (!request.profile_json_path.empty()) {
      prof::write_text(request.profile_json_path, prof::profile_json(profile));
    }
    if (!request.profile_folded_path.empty()) {
      prof::write_text(request.profile_folded_path,
                       prof::folded_stacks(profile));
    }
    if (request.profile != nullptr) *request.profile = std::move(profile);
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
  // The measured run streams (recording as it goes) and the two ideal
  // replays re-time the recorded op sequence, so time-dependent
  // decorators are sampled exactly once.
  std::unique_ptr<workloads::OpStream> stream = workloads::apply_scenarios(
      workload.stream(build_context(request.config, request.options)),
      request.scenario, request.config.nodes);
  return trace::replay_scenarios(
      sim::Placement::block(request.config.ranks, request.config.nodes), cost,
      *stream, engine_config(request.config, request.options));
}

trace::ScenarioRuns replay_scenarios(const RunRequest& request) {
  std::unique_ptr<workloads::Workload> owned;
  const workloads::Workload& workload = resolve_workload(request, owned);
  validate(request.config);
  const ClusterCostModel cost(request.config.node, request.config.nodes,
                              request.config.ranks, workload.cpu_profile());
  return replay_scenarios(request, workload, cost);
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  validate(config_);
}

RunResult Cluster::run(const workloads::Workload& workload,
                       const RunOptions& options) const {
  RunRequest request;
  request.workload = workload.name();
  request.workload_ref = &workload;
  request.config = config_;
  request.options = options;
  return cluster::run(request);
}

trace::ScenarioRuns Cluster::replay_scenarios(
    const workloads::Workload& workload, const RunOptions& options) const {
  RunRequest request;
  request.workload = workload.name();
  request.workload_ref = &workload;
  request.config = config_;
  request.options = options;
  return cluster::replay_scenarios(request);
}

}  // namespace soc::cluster
