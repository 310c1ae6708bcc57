// Figure 7: energy efficiency of hpl as the GPGPU/CPU work ratio varies,
// normalized to the all-GPU case, for cluster sizes {2,4,8,16}.
//
// Paper shape: efficiency falls monotonically as more work moves to the
// (single) CPU core — a lone A57 core is far less energy efficient than
// the two Maxwell SMs.  The paper quantifies a single CPU core at ~half
// the GPU's energy efficiency.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace soc;
  sweep::Grid grid;
  grid.workloads = {"hpl"};
  grid.nodes = {2, 4, 8, 16};
  grid.gpu_fractions = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5};
  const auto requests = grid.requests();

  sweep::SweepRunner runner(
      bench::sweep_options(argc, argv, "fig7_cpu_gpu_ratio"));
  const auto results = runner.run(requests);

  TextTable table({"GPU work fraction", "2 nodes", "4 nodes", "8 nodes",
                   "16 nodes"});
  for (std::size_t f = 0; f < grid.gpu_fractions.size(); ++f) {
    std::vector<std::string> row{TextTable::num(grid.gpu_fractions[f], 1)};
    for (std::size_t i = 0; i < grid.nodes.size(); ++i) {
      // Baseline: the all-GPU run (fraction index 0) at this cluster size.
      const double base =
          results[grid.index(0, i, 0, 0, /*ifraction=*/0)].mflops_per_watt;
      const auto& result = results[grid.index(0, i, 0, 0, f)];
      row.push_back(TextTable::num(result.mflops_per_watt / base, 2));
    }
    table.add_row(std::move(row));
  }
  std::printf(
      "Figure 7: hpl energy efficiency vs GPU/CPU work split, normalized to "
      "all-GPU\n(one CPU core per node assists the GPU)\n\n%s",
      table.str().c_str());
  soc::bench::write_artifact("fig7_cpu_gpu_ratio", table);
  soc::bench::write_sweep_artifact("fig7_cpu_gpu_ratio", requests, results,
                                   runner.summary());
  return 0;
}
