// Parallel sweep runner: executes a batch of cluster::RunRequests across
// host threads and returns results in input order.
//
// Each simulated run is single-threaded and deterministic, and requests
// share no mutable state, so a sweep shards them over soc::parallel_for.
// Determinism contract: for the same request list, results — RunStats,
// event checksums, and any JSON artifacts the requests emit — are
// byte-identical whatever the thread count, because threading only
// changes *when* a run executes, never *what* it computes, and results
// land in a preallocated slot per input index.
//
// The runner also memoizes ClusterCostModel construction: requests that
// agree on (node config, cluster shape, workload CPU profile) — e.g. a
// grid of workloads over one machine — share one model, built once.
// Config structs compare by value (defaulted operator==), so a mutated
// node (DVFS sweeps, NIC ablations) can never false-hit the cache.
#pragma once

#include <cstddef>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/thread_safety.h"
#include "trace/replay.h"

namespace soc::sweep {

struct SweepOptions {
  /// Host threads to shard across; 0 = every CPU the process may use.
  /// Thread count never changes results, only wall-clock.
  unsigned threads = 0;
  /// Repaint a stderr progress/ETA line as runs finish (see progress.h).
  bool progress = false;
  /// Label for the progress line and the sweep report.
  std::string label = "sweep";
};

/// What one sweep did; everything here is deterministic across thread
/// counts and interleavings (counts of runs and of distinct cost-model
/// keys, sums of simulated seconds) except `threads`, which reports the
/// effective fan-out and is deliberately excluded from report JSON.
struct SweepSummary {
  std::size_t runs = 0;
  std::size_t replays = 0;
  unsigned threads = 1;
  std::size_t cost_models_built = 0;
  std::size_t cost_model_hits = 0;
  double simulated_seconds = 0.0;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});
  ~SweepRunner();  ///< Out of line: CacheEntry is incomplete here.
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Runs every request and returns results in input order.  Requests
  /// carrying their own profiling sinks (or an options.observer) get them
  /// serviced by the thread running that request; sinks must not be
  /// shared between requests.  Throws (after joining all threads) if any
  /// run threw.
  std::vector<cluster::RunResult> run(
      const std::vector<cluster::RunRequest>& requests);

  /// DIMEMAS-style scenario replays for every request, in input order.
  std::vector<trace::ScenarioRuns> replay_scenarios(
      const std::vector<cluster::RunRequest>& requests);

  /// Cumulative summary over every run()/replay_scenarios() call made
  /// through this runner, copied under the runner's lock.
  SweepSummary summary() const SOC_EXCLUDES(mutex_);

 private:
  struct CacheEntry;

  /// Returns the memoized cost model for the request's (node, shape,
  /// profile) key, building it outside the cache lock on first use.
  const cluster::ClusterCostModel& cost_for(
      const cluster::RunRequest& request, const workloads::Workload& workload)
      SOC_EXCLUDES(mutex_);

  SweepOptions options_;
  /// One lock guards the memo cache and the summary: worker threads hit
  /// both from inside parallel_for.  SOC_SHARED(self)
  mutable soc::Mutex mutex_;
  SweepSummary summary_ SOC_GUARDED_BY(mutex_);
  /// std::list: entry addresses are stable across insertions.
  std::list<CacheEntry> cache_ SOC_GUARDED_BY(mutex_);
};

/// Renders a "soccluster-sweep-report/v1" JSON document summarizing one
/// sweep: per-run configuration + headline metrics + event checksum, and
/// the deterministic parts of the summary.  Thread count and wall-clock
/// never appear, so the document is byte-identical across thread counts.
std::string sweep_report_json(const std::string& label,
                              const std::vector<cluster::RunRequest>& requests,
                              const std::vector<cluster::RunResult>& results,
                              const SweepSummary& summary);

}  // namespace soc::sweep
