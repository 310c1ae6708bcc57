// Figure 5: strong scaling of the GPGPU-accelerated scientific workloads.
//
// Methodology (per §III-B.4): run at {2,4,8,16} nodes, fit the runtime
// model, extrapolate the speedup to 256 nodes; additionally replay each
// trace under an ideal network (zero latency, unlimited bandwidth) and
// under ideal load balance, and report the LB/Ser/Trf efficiency
// decomposition at 16 nodes.
//
// Paper shapes: hpl and jacobi scale well; cloverleaf and both tealeaf
// variants scale poorly (Ser-limited by host/device synchronization);
// the ideal network helps hpl and tealeaf3d the most.
//
// When SOC_BENCH_JSON_DIR is set, the 16-node 10GbE run of each workload
// is also profiled, and its soccluster-critical-path/v2 document
// (single-pass bottleneck attribution, src/prof/) is written after the
// sweep — serviced by the same sweep runs, so stdout and every existing
// artifact are unchanged.
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "prof/profile.h"

int main(int argc, char** argv) {
  using namespace soc;
  const std::vector<int> measured_sizes = {2, 4, 8, 16};

  // Measured runs: workloads × sizes × NICs; scenario replays (one per
  // workload × size, 10GbE) supply the ideal-network and ideal-LB series
  // and, at 16 nodes, the efficiency decomposition.
  sweep::Grid grid;
  grid.workloads = {"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d"};
  grid.nodes = measured_sizes;
  grid.nics = {net::NicKind::kGigabit, net::NicKind::kTenGigabit};
  auto requests = grid.requests();

  // Critical-path profiles ride along on the 16-node 10GbE runs.
  const char* dir = std::getenv("SOC_BENCH_JSON_DIR");
  const bool want_profiles = dir != nullptr && *dir != '\0';
  std::vector<prof::Profile> profiles(grid.workloads.size());
  if (want_profiles) {
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
      requests[grid.index(w, measured_sizes.size() - 1, 1)].profile =
          &profiles[w];
    }
  }

  sweep::Grid replays = grid;
  replays.nics = {net::NicKind::kTenGigabit};

  sweep::SweepRunner runner(
      bench::sweep_options(argc, argv, "fig5_scalability_gpu"));
  const auto results = runner.run(requests);
  if (want_profiles) {
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
      bench::write_or_exit(std::string(dir) +
                               "/fig5_scalability_gpu-critical-path-" +
                               grid.workloads[w] + ".json",
                           prof::profile_json(profiles[w]));
    }
  }
  const auto scenario_runs = runner.replay_scenarios(replays.requests());

  const bench::ScalingTables tables =
      bench::scaling_tables(grid, results, replays, scenario_runs);
  // The decomposition's ideal-network and ideal-LB speedups, averaged.
  double ideal_net_sum = 0.0;
  double ideal_lb_sum = 0.0;
  for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
    const auto& runs =
        scenario_runs[replays.index(w, measured_sizes.size() - 1)];
    ideal_net_sum += runs.measured.seconds() / runs.ideal_network.seconds();
    ideal_lb_sum += runs.measured.seconds() / runs.ideal_balance.seconds();
  }

  std::printf("Figure 5: GPGPU workload scalability (speedup vs 1 node)\n\n%s\n",
              tables.fits.str().c_str());
  std::printf("Efficiency decomposition at 16 nodes, 10GbE (Eq. 4)\n\n%s\n",
              tables.decomp.str().c_str());
  std::printf("average ideal-network speedup: %.2fx\n", ideal_net_sum / 5.0);
  std::printf("average ideal-load-balance speedup: %.2fx\n", ideal_lb_sum / 5.0);
  soc::bench::write_artifact("fig5_scalability_gpu", tables.fits, "speedup");
  soc::bench::write_artifact("fig5_scalability_gpu", tables.decomp,
                             "decomposition");
  soc::bench::write_sweep_artifact("fig5_scalability_gpu", requests, results,
                                   runner.summary());
  return 0;
}
