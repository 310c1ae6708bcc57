// Scalability explorer: pick any workload and see WHY it scales the way
// it does — the paper's LB/Ser/Trf efficiency decomposition (Eq. 4) at
// each cluster size, plus the fitted extrapolation to 256 nodes.
//
//   $ ./build/examples/scalability_explorer tealeaf3d
//   $ ./build/examples/scalability_explorer cg 0.5
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/cluster.h"
#include "common/error.h"
#include "common/table.h"
#include "core/efficiency.h"
#include "core/scaling.h"
#include "net/network.h"
#include "sweep/grid.h"
#include "systems/machines.h"
#include "workloads/workload.h"

int main(int argc, char** argv) {
  using namespace soc;
  const std::string name = argc > 1 ? argv[1] : "tealeaf3d";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;

  std::unique_ptr<workloads::Workload> workload;
  try {
    workload = workloads::make_workload(name);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\nknown workloads:", e.what());
    for (const std::string& n : workloads::list()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  cluster::RunRequest request;
  request.workload_ref = workload.get();
  request.options.size_scale = scale;

  TextTable table({"nodes", "runtime (s)", "LB", "Ser", "Trf", "efficiency",
                   "speedup vs 2"});
  std::vector<core::ScalingSample> samples;
  double t2 = 0.0;
  core::EfficiencyDecomposition d;  // of the last (16-node) size
  for (int nodes : {2, 4, 8, 16}) {
    request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                      sweep::natural_ranks(*workload, nodes)};
    const auto runs = cluster::replay_scenarios(request);
    d = core::decompose(runs);
    const double seconds = runs.measured.seconds();
    if (nodes == 2) t2 = seconds;
    samples.push_back(core::ScalingSample{nodes, seconds});
    table.add_row({std::to_string(nodes), TextTable::num(seconds, 2),
                   TextTable::num(d.load_balance, 3),
                   TextTable::num(d.serialization, 3),
                   TextTable::num(d.transfer, 3),
                   TextTable::num(d.efficiency, 3),
                   TextTable::num(t2 / seconds, 2)});
  }
  std::printf("%s on TX1 + 10GbE (size_scale=%.2f)\n\n%s\n", name.c_str(),
              scale, table.str().c_str());

  const core::ScalingModel model = core::fit_scaling(samples);
  std::printf("extrapolated speedup (vs 1 node, r2=%.3f): ", model.r2);
  for (int n : {32, 64, 128, 256}) {
    std::printf("S(%d)=%.1f  ", n, model.predict_speedup(n));
  }
  std::printf("\n");

  // What dominates? Point the user at the bottleneck the way §III-B.4 does.
  const char* bottleneck = "well balanced";
  if (d.transfer <= d.load_balance && d.transfer <= d.serialization) {
    bottleneck = "network transfer (Trf)";
  } else if (d.load_balance <= d.serialization) {
    bottleneck = "load imbalance (LB)";
  } else {
    bottleneck = "serialization / host-device sync (Ser)";
  }
  std::printf("dominant bottleneck at 16 nodes: %s\n", bottleneck);
  return 0;
}
