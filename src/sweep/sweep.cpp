#include "sweep/sweep.h"

#include <algorithm>
#include <memory>

#include "cluster/report.h"
#include "common/parallel.h"
#include "obs/json.h"
#include "sweep/progress.h"

namespace soc::sweep {

/// Memoization slot for one (node config, shape, CPU profile) key.  The
/// entry lives in a std::list so its address survives later insertions;
/// the model itself is built lazily under a per-entry once_flag so an
/// expensive arch::characterize never runs while cache_'s lock is held.
struct SweepRunner::CacheEntry {
  systems::NodeConfig node;
  int nodes = 0;
  int ranks = 0;
  arch::WorkloadProfile profile;

  std::once_flag once;  // SOC_SHARED(once) — call_once publishes `model`
  /// Written exactly once under `once`; read-only afterwards.
  std::optional<cluster::ClusterCostModel> model;

  bool matches(const cluster::RunRequest& request,
               const arch::WorkloadProfile& p) const {
    return nodes == request.config.nodes && ranks == request.config.ranks &&
           profile == p && node == request.config.node;
  }
};

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

SweepRunner::~SweepRunner() = default;

const cluster::ClusterCostModel& SweepRunner::cost_for(
    const cluster::RunRequest& request, const workloads::Workload& workload) {
  const arch::WorkloadProfile profile = workload.cpu_profile();
  CacheEntry* entry = nullptr;
  {
    const MutexLock lock(mutex_);
    for (CacheEntry& e : cache_) {
      if (e.matches(request, profile)) {
        entry = &e;
        ++summary_.cost_model_hits;
        break;
      }
    }
    if (entry == nullptr) {
      entry = &cache_.emplace_back();
      entry->node = request.config.node;
      entry->nodes = request.config.nodes;
      entry->ranks = request.config.ranks;
      entry->profile = profile;
      ++summary_.cost_models_built;
    }
  }
  std::call_once(entry->once, [&] {
    entry->model.emplace(entry->node, entry->nodes, entry->ranks,
                         entry->profile);
  });
  return *entry->model;
}

std::vector<cluster::RunResult> SweepRunner::run(
    const std::vector<cluster::RunRequest>& requests) {
  std::vector<cluster::RunResult> results(requests.size());
  ProgressMeter progress(options_.label, requests.size(), options_.progress);
  parallel_for(
      requests.size(),
      [&](std::size_t i) {
        const cluster::RunRequest& request = requests[i];
        cluster::validate(request.config);
        std::unique_ptr<workloads::Workload> owned;
        const workloads::Workload& workload =
            cluster::resolve_workload(request, owned);
        // One cache layer: cost_for() shares one immutable
        // ClusterCostModel across requests (mutex-guarded construction).
        // cluster::run evaluates it directly, and only through const
        // calls, so the threads' runs share it without a lock.
        results[i] = cluster::run(request, workload, cost_for(request, workload));
        progress.tick(results[i].seconds);
      },
      options_.threads);
  progress.done();

  // Summary accumulation happens after the join, in input order, so the
  // totals are independent of how the threads interleaved.  The lock is
  // uncontended here but keeps the analysis honest: summary_ is the same
  // member the workers' cache hits incremented moments ago.
  const MutexLock lock(mutex_);
  summary_.runs += requests.size();
  summary_.threads = std::max(
      summary_.threads, effective_threads(options_.threads, requests.size()));
  for (const cluster::RunResult& r : results) {
    summary_.simulated_seconds += r.seconds;
  }
  return results;
}

std::vector<trace::ScenarioRuns> SweepRunner::replay_scenarios(
    const std::vector<cluster::RunRequest>& requests) {
  std::vector<trace::ScenarioRuns> results(requests.size());
  ProgressMeter progress(options_.label, requests.size(), options_.progress);
  parallel_for(
      requests.size(),
      [&](std::size_t i) {
        const cluster::RunRequest& request = requests[i];
        cluster::validate(request.config);
        std::unique_ptr<workloads::Workload> owned;
        const workloads::Workload& workload =
            cluster::resolve_workload(request, owned);
        results[i] = cluster::replay_scenarios(request, workload,
                                               cost_for(request, workload));
        progress.tick(results[i].measured.seconds());
      },
      options_.threads);
  progress.done();

  const MutexLock lock(mutex_);
  summary_.replays += requests.size();
  summary_.threads = std::max(
      summary_.threads, effective_threads(options_.threads, requests.size()));
  for (const trace::ScenarioRuns& r : results) {
    summary_.simulated_seconds += r.measured.seconds();
  }
  return results;
}

SweepSummary SweepRunner::summary() const {
  const MutexLock lock(mutex_);
  return summary_;
}

std::string sweep_report_json(const std::string& label,
                              const std::vector<cluster::RunRequest>& requests,
                              const std::vector<cluster::RunResult>& results,
                              const SweepSummary& summary) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-sweep-report/v1");
  w.field("label", std::string_view(label));
  w.newline();

  // Deliberately no `threads` and no wall-clock: the document must be
  // byte-identical across thread counts (see sweep.h).
  w.key("summary");
  w.begin_object();
  w.field("runs", static_cast<std::int64_t>(summary.runs));
  w.field("replays", static_cast<std::int64_t>(summary.replays));
  w.field("cost_models_built",
          static_cast<std::int64_t>(summary.cost_models_built));
  w.field("cost_model_hits",
          static_cast<std::int64_t>(summary.cost_model_hits));
  w.field("simulated_seconds", summary.simulated_seconds);
  w.end_object();
  w.newline();

  w.key("runs");
  w.begin_array();
  const std::size_t count = std::min(requests.size(), results.size());
  for (std::size_t i = 0; i < count; ++i) {
    const cluster::RunRequest& request = requests[i];
    const cluster::RunResult& result = results[i];
    w.newline();
    w.begin_object();
    w.field("workload", request.workload_ref != nullptr
                            ? std::string_view(request.workload_ref->name())
                            : std::string_view(request.workload));
    w.field("node", std::string_view(request.config.node.name));
    w.field("nodes", request.config.nodes);
    w.field("ranks", request.config.ranks);
    w.field("mem_model", cluster::mem_model_name(request.options.mem_model));
    w.field("gpu_work_fraction", request.options.gpu_work_fraction);
    w.field("size_scale", request.options.size_scale);
    w.field("overlap_halos", request.options.overlap_halos);
    if (request.scenario.enabled()) {
      w.newline();
      w.key("scenario");
      cluster::write_scenario(w, request.scenario);
      w.newline();
    }
    w.field("seconds", result.seconds);
    w.field("gflops", result.gflops);
    w.field("mflops_per_watt", result.mflops_per_watt);
    w.field("joules", result.joules);
    w.field("event_checksum",
            obs::checksum_hex(result.stats.event_checksum));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::string out = w.str();
  out += '\n';
  return out;
}

}  // namespace soc::sweep
