// Top-level public API: describe a run as a RunRequest and execute it.
//
// A RunRequest bundles everything one metered simulation needs — the
// workload (by registry tag or non-owning reference), the cluster shape,
// and the per-run options — so runs are first-class values that can be
// enumerated into grids and sharded across host threads by the sweep
// subsystem (src/sweep/).  cluster::run(request) is the single entry
// point; the Cluster class survives as a thin convenience wrapper over
// it, so existing examples and tests keep compiling:
//
//   soc::cluster::RunRequest request;
//   request.workload = "jacobi";
//   request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit),
//                     /*nodes=*/16, /*ranks=*/16};
//   auto result = soc::cluster::run(request);
//   std::cout << result.seconds << "s, " << result.gflops << " GFLOP/s\n";
#pragma once

#include <memory>
#include <string>

#include "arch/pmu.h"
#include "cluster/cost_model.h"
#include "power/power_model.h"
#include "sim/engine.h"
#include "systems/machines.h"
#include "trace/replay.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace soc::obs {
class MetricsRegistry;
}  // namespace soc::obs

namespace soc::prof {
struct Profile;
struct RunTrace;
}  // namespace soc::prof

namespace soc::cluster {

struct ClusterConfig {
  systems::NodeConfig node;
  int nodes = 1;
  int ranks = 1;  ///< Total MPI ranks (must be a multiple of nodes).

  bool operator==(const ClusterConfig&) const = default;
};

/// Per-run knobs (defaults match the paper's standard setup).
struct RunOptions {
  sim::MemModel mem_model = sim::MemModel::kHostDevice;
  double gpu_work_fraction = 1.0;
  double size_scale = 1.0;
  bool overlap_halos = false;
  sim::EngineConfig engine;
  /// Optional (non-owning) observer attached to the engine for the run —
  /// see src/obs/ for metrics and Chrome-trace implementations.
  sim::EngineObserver* observer = nullptr;
};

/// Everything a bench needs from one run.
struct RunResult {
  sim::RunStats stats;
  power::EnergyReport energy;
  arch::CounterSet counters;

  double seconds = 0.0;
  double gflops = 0.0;           ///< Achieved GFLOP/s (whole cluster).
  double mflops_per_watt = 0.0;  ///< Energy efficiency.
  double joules = 0.0;
  double average_watts = 0.0;
};

/// One fully-specified simulation: the unit of work the sweep subsystem
/// shards across host threads.  The workload is named either by registry
/// tag (`workload`, resolved through workloads::make_workload) or by a
/// non-owning reference (`workload_ref`, which wins when both are set and
/// must outlive the run).  Requests are plain values: enumerating a grid
/// of them is how every bench binary expresses its experiment.
struct RunRequest {
  std::string workload;
  const workloads::Workload* workload_ref = nullptr;
  ClusterConfig config;
  RunOptions options;

  /// Fault-injection / noise / checkpoint decorators applied over the
  /// workload's op stream (value-semantic; serialized into run reports
  /// when enabled).  Empty by default: the run is then byte-identical to
  /// the pre-scenario API.
  workloads::ScenarioConfig scenario;

  /// Per-run observability sinks, both optional.  When either is set the
  /// run attaches its own obs::MetricsObserver (composed with
  /// options.observer when that is also set), copies the resulting
  /// registry into `metrics`, and/or writes a soccluster-run-report/v1
  /// document to `report_path`.  Each request owns its sinks, so
  /// concurrent sweep runs never share observer state.
  obs::MetricsRegistry* metrics = nullptr;
  std::string report_path;

  /// Critical-path profiling sinks, all optional.  When any is set the
  /// run attaches a prof::Profiler (composed with the other observers),
  /// reconstructs the dependency DAG, and runs the single-pass
  /// attribution + what-if analysis (src/prof/): `profile` receives the
  /// analyzed prof::Profile, `profile_json_path` the deterministic
  /// soccluster-critical-path/v1 document, and `profile_folded_path` the
  /// flamegraph-compatible folded stacks.  When none is set no profiler
  /// is attached and the run's cost is unchanged.
  prof::Profile* profile = nullptr;
  std::string profile_json_path;
  std::string profile_folded_path;
  /// Receives a copy of the reconstructed prof::RunTrace (implies
  /// profiling like the sinks above); feed it to prof::retime() for
  /// DVFS / power-cap what-ifs without re-running.
  prof::RunTrace* run_trace = nullptr;
};

/// Validates a cluster shape; throws soc::UsageError on a bad one.
/// Shared by run() and the Cluster constructor.
void validate(const ClusterConfig& config);

/// Resolves a request's workload: `workload_ref` when set, otherwise a
/// fresh instance of the named workload, parked in `owned`.
const workloads::Workload& resolve_workload(
    const RunRequest& request, std::unique_ptr<workloads::Workload>& owned);

/// Runs one request to completion and meters it.  This is the single
/// entry point every metered simulation in the repo lowers to.
RunResult run(const RunRequest& request);

/// Same run against a caller-resolved workload and a prebuilt cost model
/// (the sweep runner memoizes ClusterCostModel construction across
/// requests; the model must match the request's node config, shape, and
/// the workload's cpu_profile()).
RunResult run(const RunRequest& request, const workloads::Workload& workload,
              const ClusterCostModel& cost);

/// Runs the three DIMEMAS-style scenarios (measured / ideal network /
/// ideal load balance) over the same generated programs.  The request's
/// observability sinks are ignored — scenario replays feed the
/// efficiency decomposition, not per-run artifacts.
trace::ScenarioRuns replay_scenarios(const RunRequest& request);
trace::ScenarioRuns replay_scenarios(const RunRequest& request,
                                     const workloads::Workload& workload,
                                     const ClusterCostModel& cost);

/// Convenience wrapper retained for existing callers; new code should
/// build RunRequests (the request form is what the sweep runner shards).
/// Both methods are thin shims that lower onto cluster::run /
/// cluster::replay_scenarios.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  const ClusterConfig& config() const { return config_; }

  /// Runs a workload to completion and meters it (wraps cluster::run).
  RunResult run(const workloads::Workload& workload,
                const RunOptions& options = {}) const;

  /// Wraps cluster::replay_scenarios.
  trace::ScenarioRuns replay_scenarios(const workloads::Workload& workload,
                                       const RunOptions& options = {}) const;

 private:
  ClusterConfig config_;
};

}  // namespace soc::cluster
