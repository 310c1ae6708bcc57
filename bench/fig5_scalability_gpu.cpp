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
#include "core/efficiency.h"
#include "core/scaling.h"
#include "prof/profile.h"

int main(int argc, char** argv) {
  using namespace soc;
  const std::vector<int> measured_sizes = {2, 4, 8, 16};
  const std::vector<int> extrapolated = {16, 32, 64, 128, 256};

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

  std::vector<cluster::RunRequest> replays;
  for (const std::string& name : grid.workloads) {
    for (int nodes : measured_sizes) {
      replays.push_back(bench::tx1_request(name, net::NicKind::kTenGigabit,
                                           nodes, nodes));
    }
  }

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
  const auto scenario_runs = runner.replay_scenarios(replays);

  TextTable fits({"workload", "model", "S(16)", "S(32)", "S(64)", "S(128)",
                  "S(256)", "r2"});
  TextTable decomp({"workload", "LB", "Ser", "Trf", "efficiency",
                    "ideal-net speedup", "ideal-LB speedup"});

  double ideal_net_sum = 0.0;
  double ideal_lb_sum = 0.0;
  for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
    const std::string& name = grid.workloads[w];
    struct Series {
      const char* label;
      std::size_t inic;  // grid NIC index for measured series
      int scenario;      // 0 measured, 1 ideal network, 2 ideal LB
    };
    const Series series[] = {
        {"1G model", 0, 0},
        {"10G model", 1, 0},
        {"ideal network", 1, 1},
        {"ideal load balance", 1, 2},
    };
    for (const Series& s : series) {
      std::vector<core::ScalingSample> samples;
      for (std::size_t i = 0; i < measured_sizes.size(); ++i) {
        double seconds = 0.0;
        if (s.scenario == 0) {
          seconds = results[grid.index(w, i, s.inic)].seconds;
        } else {
          const auto& runs = scenario_runs[w * measured_sizes.size() + i];
          seconds = s.scenario == 1 ? runs.ideal_network.seconds()
                                    : runs.ideal_balance.seconds();
        }
        samples.push_back(core::ScalingSample{measured_sizes[i], seconds});
      }
      const core::ScalingModel model = core::fit_scaling(samples);
      std::vector<std::string> row{name, s.label};
      for (int n : extrapolated) {
        row.push_back(TextTable::num(model.predict_speedup(n), 1));
      }
      row.push_back(TextTable::num(model.r2, 3));
      fits.add_row(std::move(row));
    }

    // Efficiency decomposition at 16 nodes (10GbE) — the same replay that
    // fed the ideal-* series above.
    const auto& runs =
        scenario_runs[w * measured_sizes.size() + measured_sizes.size() - 1];
    const core::EfficiencyDecomposition d = core::decompose(runs);
    const double inet = runs.measured.seconds() / runs.ideal_network.seconds();
    const double ilb = runs.measured.seconds() / runs.ideal_balance.seconds();
    ideal_net_sum += inet;
    ideal_lb_sum += ilb;
    decomp.add_row({name, TextTable::num(d.load_balance, 3),
                    TextTable::num(d.serialization, 3),
                    TextTable::num(d.transfer, 3),
                    TextTable::num(d.efficiency, 3), TextTable::num(inet, 2),
                    TextTable::num(ilb, 2)});
  }

  std::printf("Figure 5: GPGPU workload scalability (speedup vs 1 node)\n\n%s\n",
              fits.str().c_str());
  std::printf("Efficiency decomposition at 16 nodes, 10GbE (Eq. 4)\n\n%s\n",
              decomp.str().c_str());
  std::printf("average ideal-network speedup: %.2fx\n", ideal_net_sum / 5.0);
  std::printf("average ideal-load-balance speedup: %.2fx\n", ideal_lb_sum / 5.0);
  soc::bench::write_artifact("fig5_scalability_gpu", fits, "speedup");
  soc::bench::write_artifact("fig5_scalability_gpu", decomp, "decomposition");
  soc::bench::write_sweep_artifact("fig5_scalability_gpu", requests, results,
                                   runner.summary());
  return 0;
}
