// Quickstart: build a 4-node Jetson TX1 cluster with 10GbE, run the
// jacobi solver on it, and print runtime, throughput, energy, and where
// the run sits on the extended Roofline model.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "cluster/cluster.h"
#include "cluster/report.h"
#include "core/extended_roofline.h"
#include "net/network.h"
#include "systems/machines.h"

int main() {
  using namespace soc;

  // 1. Describe the cluster: 4 Jetson TX1 nodes, one MPI rank per node
  //    driving the integrated GPU, connected by the PCIe 10GbE cards.
  const systems::NodeConfig node = systems::jetson_tx1(net::NicKind::kTenGigabit);

  // 2. Pick a workload from ClusterSoCBench and run it there.
  cluster::RunRequest request;
  request.workload = "jacobi";
  request.config = {node, /*nodes=*/4, /*ranks=*/4};
  request.options.size_scale = 0.25;  // keep the quickstart snappy
  const cluster::RunResult result = cluster::run(request);

  std::printf("jacobi on 4x TX1 (10GbE)\n");
  std::printf("  runtime        : %.2f s\n", result.seconds);
  std::printf("  throughput     : %.2f GFLOP/s\n", result.gflops);
  std::printf("  energy         : %.0f J (avg %.1f W)\n", result.joules,
              result.average_watts);
  std::printf("  efficiency     : %.1f MFLOPS/W\n", result.mflops_per_watt);
  std::printf("  net traffic    : %.3f GB\n",
              static_cast<double>(result.stats.total_net_bytes) / 1e9);
  std::printf("  DRAM traffic   : %.1f GB\n",
              static_cast<double>(result.stats.total_dram_bytes) / 1e9);

  // 3. Place the run on the paper's extended Roofline model (Eqs. 1-3):
  //    the node's double-precision GPU peak, GPU DRAM and NIC bandwidth.
  const core::ExtendedRoofline model =
      cluster::energy_roofline_model(node, /*dp=*/true).roofline;
  const core::RooflineMeasurement m =
      core::measure_roofline(model, result.stats, 4, "jacobi");
  std::printf("\nextended roofline position\n");
  std::printf("  operational intensity : %.3f FLOP/B\n",
              m.operational_intensity);
  std::printf("  network intensity     : %.1f FLOP/B\n", m.network_intensity);
  std::printf("  attainable            : %.2f GFLOP/s per node\n",
              m.attainable_flops / 1e9);
  std::printf("  achieved              : %.2f GFLOP/s per node (%.0f%%)\n",
              m.achieved_flops / 1e9, m.percent_of_peak);
  std::printf("  limited by            : %s intensity\n",
              core::limit_name(m.limit));
  return 0;
}
