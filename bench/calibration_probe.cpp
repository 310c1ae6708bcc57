// Calibration probe: prints each workload profile's characterization
// (CPI, branch misprediction, cache miss ratios) on the three machine
// models, at the cluster shapes the paper's experiments use.  Not a paper
// table, but the raw material behind Table VI / Fig 8 — useful for
// sanity-checking the microarchitectural substrate.
#include <cstdio>

#include "bench_common.h"
#include "cluster/cost_model.h"
#include "common/table.h"
#include "net/network.h"
#include "systems/machines.h"
#include "workloads/workload.h"

int main(int argc, char** argv) {
  using namespace soc;
  bench::reject_arguments(argc, argv);

  struct Shape {
    const char* label;
    systems::NodeConfig node;
    int nodes;
    int ranks;
  };
  const Shape shapes[] = {
      {"tx1(16n,32r)", systems::jetson_tx1(net::NicKind::kTenGigabit), 16, 32},
      {"thunderx(1n,32r)", systems::thunderx_server(), 1, 32},
      {"xeon(2n,16r)", systems::xeon_gtx980(), 2, 16},
  };

  TextTable table({"workload", "machine", "cpi", "br-mpred", "l1d-miss",
                   "l2d-miss", "dramB/inst"});
  for (const std::string& name : workloads::list()) {
    const auto workload = workloads::make_workload(name);
    for (const Shape& s : shapes) {
      cluster::ClusterCostModel cost(s.node, s.nodes, s.ranks,
                                     workload->cpu_profile());
      const arch::Characterization& c = cost.characterization();
      table.add_row({name, s.label, TextTable::num(c.cpi, 2),
                     TextTable::num(c.branch_misprediction_ratio, 3),
                     TextTable::num(c.l1d_miss_ratio, 3),
                     TextTable::num(c.l2d_miss_ratio, 3),
                     TextTable::num(c.dram_bytes_per_instruction, 2)});
    }
  }
  std::printf("%s", table.str().c_str());
  return 0;
}
