// Figure 6: strong scaling of the NPB suite, same methodology as Fig 5
// (two ranks per node; measured at {2,4,8,16} nodes; extrapolated).
//
// Paper shapes: bt, ep, mg, sp scale well; cg, ft, is, lu scale poorly —
// ft and is are network-bound (ideal network helps them ~3x), cg and lu
// are load-balance-bound (ideal LB helps them most).
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace soc;
  sweep::Grid grid;
  grid.workloads = {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"};
  grid.nodes = {2, 4, 8, 16};
  grid.nics = {net::NicKind::kGigabit, net::NicKind::kTenGigabit};
  const auto requests = grid.requests();

  sweep::Grid replays = grid;
  replays.nics = {net::NicKind::kTenGigabit};

  sweep::SweepRunner runner(
      bench::sweep_options(argc, argv, "fig6_scalability_npb"));
  const auto results = runner.run(requests);
  const auto scenario_runs = runner.replay_scenarios(replays.requests());

  const bench::ScalingTables tables =
      bench::scaling_tables(grid, results, replays, scenario_runs);
  std::printf("Figure 6: NPB scalability (speedup vs 1 node)\n\n%s\n",
              tables.fits.str().c_str());
  std::printf("Efficiency decomposition at 16 nodes, 10GbE (Eq. 4)\n\n%s",
              tables.decomp.str().c_str());
  soc::bench::write_artifact("fig6_scalability_npb", tables.fits, "speedup");
  soc::bench::write_artifact("fig6_scalability_npb", tables.decomp,
                             "decomposition");
  soc::bench::write_sweep_artifact("fig6_scalability_npb", requests, results,
                                   runner.summary());
  return 0;
}
