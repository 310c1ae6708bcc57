// Top-level public API: describe a run as a RunRequest and execute it.
//
// A RunRequest bundles everything one metered simulation needs — the
// workload (by registry tag or non-owning reference), the cluster shape,
// and the per-run options — so runs are first-class values that can be
// enumerated into grids and sharded across host threads by the sweep
// subsystem (src/sweep/).  cluster::run(request) is the single entry
// point:
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

namespace soc::prof {
struct Profile;
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

  /// Critical-path profiling sink, optional.  When set the run attaches
  /// its own prof::Profiler (composed with options.observer when that is
  /// also set), reconstructs the dependency DAG, runs the attribution and
  /// energy passes (src/prof/), and stores the analyzed prof::Profile
  /// here; the caller renders its artifacts (prof::profile_json,
  /// prof::folded_stacks).  When unset no profiler is attached and the
  /// run's cost is unchanged.  A caller that needs the reconstructed
  /// prof::RunTrace itself attaches a prof::Profiler through
  /// options.observer.  Each request owns its sink, so concurrent sweep
  /// runs never share observer state.  A run writes no file.
  prof::Profile* profile = nullptr;
};

/// Validates a cluster shape; throws soc::UsageError on a bad one.
void validate(const ClusterConfig& config);

/// The engine configuration a run of `config` uses: `options.engine`, with
/// a bisection bandwidth of 0 ("use the node's switch") resolved to the
/// node's switch fabric.  The one place that default is decided: runs,
/// scenario replays, run reports and `socbench replay` all call it.
sim::EngineConfig engine_config(const ClusterConfig& config,
                                const RunOptions& options);

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
/// ideal load balance) over the same op sequence.  Without scenario
/// decorators each run pulls its own fresh Workload::stream() and nothing
/// is recorded, so memory does not follow op count.  A decorated request
/// records the measured run's ops and re-times that recording, because
/// its decorators sample the schedule they run under.  The request's
/// observability sinks are ignored — scenario replays feed the
/// efficiency decomposition, not per-run artifacts.
trace::ScenarioRuns replay_scenarios(const RunRequest& request);
trace::ScenarioRuns replay_scenarios(const RunRequest& request,
                                     const workloads::Workload& workload,
                                     const ClusterCostModel& cost);

}  // namespace soc::cluster
