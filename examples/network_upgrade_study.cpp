// Network upgrade study: what does swapping the Jetson's on-board 1GbE
// for the PCIe 10GbE card buy, per workload?  This is the experiment
// behind the paper's headline result (Figs 1-2): network-intensive
// workloads speed up dramatically, compute-local ones don't, and the
// extra 5 W per node pays for itself in total energy whenever runtime
// drops more than a few percent.
//
//   $ ./build/examples/network_upgrade_study [nodes] [size_scale]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/cluster.h"
#include "common/table.h"
#include "net/network.h"
#include "sweep/grid.h"
#include "systems/machines.h"
#include "workloads/workload.h"

int main(int argc, char** argv) {
  using namespace soc;
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 8;
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;

  TextTable table({"workload", "1GbE (s)", "10GbE (s)", "speedup",
                   "energy 1G (kJ)", "energy 10G (kJ)", "energy ratio"});

  for (const std::string& name : workloads::list()) {
    const auto workload = workloads::make_workload(name);
    cluster::RunRequest request;
    request.workload_ref = workload.get();
    request.options.size_scale = scale;
    request.config = {systems::jetson_tx1(net::NicKind::kGigabit), nodes,
                      sweep::natural_ranks(*workload, nodes)};
    const auto slow = cluster::run(request);
    request.config.node = systems::jetson_tx1(net::NicKind::kTenGigabit);
    const auto fast = cluster::run(request);

    table.add_row({name, TextTable::num(slow.seconds, 1),
                   TextTable::num(fast.seconds, 1),
                   TextTable::num(slow.seconds / fast.seconds, 2),
                   TextTable::num(slow.joules / 1e3, 2),
                   TextTable::num(fast.joules / 1e3, 2),
                   TextTable::num(fast.joules / slow.joules, 2)});
  }

  std::printf("1GbE vs 10GbE on a %d-node TX1 cluster (size_scale=%.2f)\n\n%s",
              nodes, scale, table.str().c_str());
  return 0;
}
