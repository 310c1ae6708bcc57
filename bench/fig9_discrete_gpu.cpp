// Figure 9 (+ Table VII context): the discrete GPGPU comparison.
//
// Runs every GPGPU workload on TX1 clusters of {2,4,8,16} nodes and on a
// 2-node Xeon+GTX 980 cluster (same Maxwell family, ~equal total power,
// equal SM count at 16 TX nodes), reporting runtime and energy normalized
// to the GTX pair.
//
// Paper shapes: at small node counts the TX cluster is slower but uses
// less energy; workloads that scale well (hpl, jacobi, alexnet,
// googlenet) end up better on BOTH axes at 16 nodes; the poorly-scaling
// tealeaf/cloverleaf codes never catch up in performance.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace soc;
  const char* gpu_workloads[] = {"hpl",       "jacobi",  "cloverleaf",
                                 "tealeaf2d", "tealeaf3d", "alexnet",
                                 "googlenet"};
  const int sizes[] = {2, 4, 8, 16};

  // Per workload: the GTX 980 baseline first, then the TX cluster sizes.
  std::vector<cluster::RunRequest> requests;
  for (const char* name : gpu_workloads) {
    const bool dnn =
        std::string(name) == "alexnet" || std::string(name) == "googlenet";
    cluster::RunRequest baseline;
    baseline.workload = name;
    baseline.config = {systems::xeon_gtx980(), /*nodes=*/2,
                       /*ranks=*/dnn ? 16 : 2};
    requests.push_back(std::move(baseline));
    const auto workload = workloads::make_workload(name);
    for (int nodes : sizes) {
      requests.push_back(bench::tx1_request(
          name, net::NicKind::kTenGigabit, nodes,
          sweep::natural_ranks(*workload, nodes)));
    }
  }

  sweep::SweepRunner runner(
      bench::sweep_options(argc, argv, "fig9_discrete_gpu"));
  const auto results = runner.run(requests);

  const std::size_t stride = 1 + std::size(sizes);
  TextTable table({"workload", "TX nodes", "norm. runtime", "norm. energy"});
  for (std::size_t w = 0; w < std::size(gpu_workloads); ++w) {
    const auto& baseline = results[w * stride];
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      const auto& result = results[w * stride + 1 + i];
      table.add_row({gpu_workloads[w], std::to_string(sizes[i]),
                     TextTable::num(result.seconds / baseline.seconds, 2),
                     TextTable::num(result.joules / baseline.joules, 2)});
    }
  }
  std::printf(
      "Figure 9: TX1 cluster normalized to two discrete GTX 980s "
      "(values < 1 favor the TX cluster)\n\n%s",
      table.str().c_str());
  soc::bench::write_artifact("fig9_discrete_gpu", table);
  soc::bench::write_sweep_artifact("fig9_discrete_gpu", requests, results,
                                   runner.summary());
  return 0;
}
