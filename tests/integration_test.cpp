// Integration tests: lock in the paper's headline shapes end-to-end.
// Each test is a miniature version of one evaluation result; if a
// refactor breaks the reproduction, these fail before the benches do.
#include <gtest/gtest.h>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "core/counters_analysis.h"
#include "core/efficiency.h"
#include "core/extended_roofline.h"
#include "net/microbench.h"
#include "systems/machines.h"
#include "workloads/workload.h"

namespace soc {
namespace {

cluster::RunOptions at_scale(double s) {
  cluster::RunOptions options;
  options.size_scale = s;
  return options;
}

constexpr net::NicKind k1g = net::NicKind::kGigabit;
constexpr net::NicKind k10g = net::NicKind::kTenGigabit;

/// `workload` on `nodes` Jetson TX1 nodes with `nic`, `ranks` in all.
cluster::RunResult tx1_run(net::NicKind nic, int nodes, int ranks,
                           const std::string& workload,
                           const cluster::RunOptions& options) {
  return cluster::run(bench::tx1_request(workload, nic, nodes, ranks, options));
}

/// `workload` on `nodes` nodes of `node`, `ranks` in all.
cluster::RunResult run_on(const systems::NodeConfig& node, int nodes,
                          int ranks, const std::string& workload,
                          const cluster::RunOptions& options) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {node, nodes, ranks};
  request.options = options;
  return cluster::run(request);
}

TEST(PaperShapes, TenGigHelpsNetworkBoundGpuWorkloads) {
  // Fig 1: hpl and tealeaf3d speed up substantially; jacobi modestly.
  for (const auto& [name, min_speedup, max_speedup] :
       {std::tuple{"hpl", 1.3, 3.5}, std::tuple{"tealeaf3d", 1.5, 3.5},
        std::tuple{"jacobi", 1.0, 1.4}}) {
    const auto slow = tx1_run(k1g, 8, 8, name, at_scale(0.3));
    const auto fast = tx1_run(k10g, 8, 8, name, at_scale(0.3));
    const double speedup = slow.seconds / fast.seconds;
    EXPECT_GE(speedup, min_speedup) << name;
    EXPECT_LE(speedup, max_speedup) << name;
  }
}

TEST(PaperShapes, DnnWorkloadsIgnoreTheNetwork) {
  // Fig 1: alexnet/googlenet are node-local.
  const auto slow = tx1_run(k1g, 4, 16, "alexnet", at_scale(0.2));
  const auto fast = tx1_run(k10g, 4, 16, "alexnet", at_scale(0.2));
  EXPECT_NEAR(slow.seconds / fast.seconds, 1.0, 0.01);
}

TEST(PaperShapes, NetworkEnergyTradeoff) {
  // Fig 2: the +5 W NIC pays off for hpl, costs energy for ep.
  const auto hpl_slow = tx1_run(k1g, 8, 8, "hpl", at_scale(0.3));
  const auto hpl_fast = tx1_run(k10g, 8, 8, "hpl", at_scale(0.3));
  // At this reduced problem size hpl is less network-bound than the full
  // run, so allow the NIC to roughly break even rather than strictly win.
  EXPECT_LT(hpl_fast.joules, hpl_slow.joules * 1.15);

  const auto ep_slow = tx1_run(k1g, 8, 16, "ep", at_scale(0.1));
  const auto ep_fast = tx1_run(k10g, 8, 16, "ep", at_scale(0.1));
  EXPECT_GT(ep_fast.joules, ep_slow.joules);
}

TEST(PaperShapes, IperfAndLatencyMatchSectionIIIA) {
  const net::NetworkModel slow(net::gigabit_nic(), net::SwitchConfig{}, 7e9);
  const net::NetworkModel fast(net::ten_gigabit_nic(), net::SwitchConfig{},
                               7e9);
  // The TX1 drives the 10GbE card at ~3.3 Gb/s, not line rate.
  EXPECT_NEAR(net::measure_throughput(fast).gbit_per_second, 3.3, 0.4);
  EXPECT_NEAR(net::measure_throughput(slow).gbit_per_second, 0.94, 0.1);
  EXPECT_LT(net::measure_throughput(fast).gbit_per_second, 9.0);
}

TEST(PaperShapes, RooflineLimitsFlipForHpl) {
  // Table II: hpl is network-limited at 1GbE, operational at 10GbE;
  // jacobi is operational on both.
  for (auto [nic, expected] :
       {std::pair{k1g, core::RooflineLimit::kNetwork},
        std::pair{k10g, core::RooflineLimit::kOperational}}) {
    const auto result = tx1_run(nic, 8, 8, "hpl", at_scale(0.5));
    const auto m = core::measure_roofline(bench::tx1_roofline(nic),
                                          result.stats, 8, "hpl");
    EXPECT_EQ(m.limiting_intensity, expected);
  }
}

TEST(PaperShapes, IntensitiesAreNetworkInvariant) {
  // Table II: OI and NI are workload properties, identical across NICs.
  const auto slow = tx1_run(k1g, 8, 8, "tealeaf3d", at_scale(0.3));
  const auto fast = tx1_run(k10g, 8, 8, "tealeaf3d", at_scale(0.3));
  const auto ms =
      core::measure_roofline(bench::tx1_roofline(k1g), slow.stats, 8, "t3");
  const auto mf =
      core::measure_roofline(bench::tx1_roofline(k10g), fast.stats, 8, "t3");
  EXPECT_NEAR(ms.operational_intensity, mf.operational_intensity, 1e-9);
  EXPECT_NEAR(ms.network_intensity, mf.network_intensity,
              ms.network_intensity * 1e-6);
}

TEST(PaperShapes, DramTrafficRisesWithFasterNetwork) {
  // Fig 3: a faster network un-starves the GPU, raising the DRAM rate.
  const auto slow = tx1_run(k1g, 8, 8, "tealeaf3d", at_scale(0.3));
  const auto fast = tx1_run(k10g, 8, 8, "tealeaf3d", at_scale(0.3));
  EXPECT_GT(fast.stats.dram_bytes_per_second(),
            1.5 * slow.stats.dram_bytes_per_second());
}

TEST(PaperShapes, ZeroCopyPenaltyMatchesTableIII) {
  cluster::RunOptions hd = at_scale(0.2);
  cluster::RunOptions zc = at_scale(0.2);
  zc.mem_model = sim::MemModel::kZeroCopy;
  cluster::RunOptions um = at_scale(0.2);
  um.mem_model = sim::MemModel::kUnified;
  const double base = tx1_run(k10g, 1, 1, "jacobi", hd).seconds;
  EXPECT_NEAR(tx1_run(k10g, 1, 1, "jacobi", zc).seconds / base, 2.5, 0.5);
  EXPECT_NEAR(tx1_run(k10g, 1, 1, "jacobi", um).seconds / base, 1.0, 0.1);
}

TEST(PaperShapes, GpuMoreEnergyEfficientThanCpuCore) {
  // Fig 7: shifting hpl work from GPU to one CPU core reduces MFLOPS/W.
  cluster::RunOptions all_gpu = at_scale(0.3);
  cluster::RunOptions half = at_scale(0.3);
  half.gpu_work_fraction = 0.5;
  EXPECT_GT(tx1_run(k10g, 4, 4, "hpl", all_gpu).mflops_per_watt,
            tx1_run(k10g, 4, 4, "hpl", half).mflops_per_watt);
}

TEST(PaperShapes, ColocationBeatsStandalone) {
  // Table IV: CPU+GPU colocation beats either alone on efficiency.
  const auto gpu = tx1_run(k10g, 4, 4, "hpl", at_scale(0.3));
  cluster::RunOptions cpu_only = at_scale(0.3);
  cpu_only.gpu_work_fraction = 0.0;
  const auto cpu = tx1_run(k10g, 4, 16, "hpl", cpu_only);
  const auto both = tx1_run(k10g, 4, 16, "hpl", at_scale(0.3));
  EXPECT_GT(both.mflops_per_watt,
            std::max(gpu.mflops_per_watt, cpu.mflops_per_watt));
  EXPECT_GT(both.gflops, std::max(gpu.gflops, cpu.gflops));
}

TEST(PaperShapes, CaviumGrouping) {
  // Table VI: mg/sp slower on the ThunderX; ft/is faster.
  for (const auto& [name, cavium_slower] :
       {std::pair{"mg", true}, std::pair{"sp", true}, std::pair{"ft", false},
        std::pair{"is", false}}) {
    const double ratio =
        run_on(systems::thunderx_server(), 1, 32, name, at_scale(0.25))
            .seconds /
        tx1_run(k10g, 16, 32, name, at_scale(0.25)).seconds;
    if (cavium_slower) {
      EXPECT_GT(ratio, 1.05) << name;
    } else {
      EXPECT_LT(ratio, 0.95) << name;
    }
  }
}

TEST(PaperShapes, EfficiencyDecompositionSeparatesBottlenecks) {
  // Fig 6 methodology: ft is transfer-bound, cg is LB-bound.
  const auto ft_d = core::decompose(cluster::replay_scenarios(
      bench::tx1_request("ft", k10g, 8, 16, at_scale(0.3))));
  const auto cg_d = core::decompose(cluster::replay_scenarios(
      bench::tx1_request("cg", k10g, 8, 16, at_scale(0.3))));
  EXPECT_LT(ft_d.transfer, cg_d.transfer);       // ft loses to the network
  EXPECT_LT(cg_d.load_balance, ft_d.load_balance);  // cg loses to imbalance
}

TEST(PaperShapes, SoCClusterWinsAiWorkloadsAtEqualSmCount) {
  // Figs 9-10: at 32 SMs on both sides, the TX cluster's CPU/GPU balance
  // wins image classification on performance and energy.
  const auto up =
      run_on(systems::xeon_gtx980(), 2, 16, "googlenet", at_scale(0.5));
  const auto out = tx1_run(k10g, 16, 64, "googlenet", at_scale(0.5));
  EXPECT_LT(out.seconds, up.seconds);
  EXPECT_LT(out.joules, up.joules);
}

TEST(PaperShapes, PlsFindsBranchAndCacheBottlenecks) {
  // Fig 8: the PLS top variables point at the L2 and branch predictor.
  std::vector<core::BenchmarkObservation> obs;
  for (const char* name : {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}) {
    const auto a =
        run_on(systems::thunderx_server(), 1, 32, name, at_scale(0.1));
    const auto b = tx1_run(k10g, 16, 32, name, at_scale(0.1));
    core::BenchmarkObservation o;
    o.name = name;
    o.system_a = a.counters;
    o.system_b = b.counters;
    o.runtime_a = a.seconds;
    o.runtime_b = b.seconds;
    obs.push_back(std::move(o));
  }
  const auto analysis = core::analyze_counters(obs);
  bool found_cache = false;
  bool found_branch_or_cache2 = false;
  for (const std::string& v : analysis.top_variables) {
    found_cache |= v == "LD_MISS_RATIO" || v == "L2D_CACHE_REFILL";
    found_branch_or_cache2 |= v == "BR_MIS_PRED" || v == "BR_MIS_RATIO" ||
                              v == "INST_SPEC" || v == "L2D_CACHE_REFILL";
  }
  EXPECT_TRUE(found_cache);
  EXPECT_TRUE(found_branch_or_cache2);
}

}  // namespace
}  // namespace soc
