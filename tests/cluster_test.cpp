// Tests for systems/ and cluster/: machine configurations, the composed
// cost model, and end-to-end cluster::run requests.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/error.h"
#include "net/network.h"
#include "systems/machines.h"
#include "workloads/workload.h"

namespace soc {
namespace {

/// A quick (5% problem size) run of `workload` on `nodes` TX1 nodes.
cluster::RunRequest quick(const std::string& workload, int nodes, int ranks,
                          net::NicKind nic = net::NicKind::kTenGigabit) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {systems::jetson_tx1(nic), nodes, ranks};
  request.options.size_scale = 0.05;
  return request;
}

TEST(Systems, Tx1MatchesTableFive) {
  const auto node = systems::jetson_tx1(net::NicKind::kTenGigabit);
  EXPECT_EQ(node.cpu_cores, 4);
  EXPECT_NEAR(node.core.frequency_hz, 1.73e9, 1e6);
  EXPECT_TRUE(node.has_gpu);
  EXPECT_EQ(node.gpu.sm_count, 2);
  EXPECT_EQ(node.core.l2.size, 2 * kMiB);
  EXPECT_EQ(node.dram.capacity, 4 * kGiB);
}

TEST(Systems, ThunderXMatchesTableFive) {
  const auto node = systems::thunderx_server();
  EXPECT_EQ(node.cpu_cores, 96);
  EXPECT_NEAR(node.core.frequency_hz, 2.0e9, 1e6);
  EXPECT_FALSE(node.has_gpu);
  EXPECT_EQ(node.core.l2.size, 16 * kMiB);
  EXPECT_EQ(node.core.predictor, arch::PredictorKind::kBimodal);
}

TEST(Systems, Gtx980MatchesTableSeven) {
  const auto node = systems::xeon_gtx980();
  EXPECT_TRUE(node.has_gpu);
  EXPECT_EQ(node.gpu.sm_count, 16);
  EXPECT_NEAR(node.gpu.memory_bandwidth, 224e9, 1e9);
  EXPECT_NEAR(node.gpu.frequency_hz, 1.216e9, 1e7);
}

TEST(Systems, NicChoiceChangesConfig) {
  const auto slow = systems::jetson_tx1(net::NicKind::kGigabit);
  const auto fast = systems::jetson_tx1(net::NicKind::kTenGigabit);
  EXPECT_LT(slow.nic.effective_bandwidth, fast.nic.effective_bandwidth);
  EXPECT_GT(fast.power.nic_idle_w, slow.power.nic_idle_w);
}

TEST(CostModel, L2ContentionMatchesShape) {
  const auto tx = systems::jetson_tx1(net::NicKind::kTenGigabit);
  // One rank per node: exclusive L2 domain.
  EXPECT_DOUBLE_EQ(cluster::l2_contention_for(tx, 16, 16), 1.0);
  // Two ranks per node share the single 4-core L2 domain.
  EXPECT_DOUBLE_EQ(cluster::l2_contention_for(tx, 16, 32), 2.0);
  // ThunderX: 32 ranks over two 48-core sockets, with thrash factor.
  const auto cavium = systems::thunderx_server();
  EXPECT_NEAR(cluster::l2_contention_for(cavium, 1, 32), 16 * 1.6, 1e-9);
}

TEST(CostModel, CpuTimeScalesWithInstructions) {
  const auto tx = systems::jetson_tx1(net::NicKind::kTenGigabit);
  cluster::ClusterCostModel cost(tx, 2, 2,
                                 workloads::make_workload("bt")->cpu_profile());
  const SimTime t1 = cost.cpu_compute_time(0, sim::cpu_op(1e8, 0, 0, 0));
  const SimTime t2 = cost.cpu_compute_time(0, sim::cpu_op(2e8, 0, 0, 0));
  EXPECT_NEAR(static_cast<double>(t2), 2.0 * static_cast<double>(t1),
              static_cast<double>(t1) * 0.01);
}

TEST(CostModel, GpuKernelRejectedOnGpulessNode) {
  const auto cavium = systems::thunderx_server();
  cluster::ClusterCostModel cost(cavium, 1, 32,
                                 workloads::make_workload("bt")->cpu_profile());
  EXPECT_THROW(
      cost.gpu_kernel_time(0, sim::gpu_op(1e9, 0, sim::MemModel::kHostDevice)),
      Error);
}

TEST(CostModel, CopyCostDependsOnMemModel) {
  const auto tx = systems::jetson_tx1(net::NicKind::kTenGigabit);
  cluster::ClusterCostModel cost(tx, 2, 2,
                                 workloads::make_workload("jacobi")->cpu_profile());
  const SimTime hd =
      cost.copy_time(0, sim::copy_h2d_op(10 * kMB, sim::MemModel::kHostDevice));
  const SimTime zc =
      cost.copy_time(0, sim::copy_h2d_op(10 * kMB, sim::MemModel::kZeroCopy));
  EXPECT_GT(hd, zc);  // zero-copy performs no copy at all
}

TEST(Cluster, RejectsInvalidShapes) {
  const auto node = systems::jetson_tx1(net::NicKind::kTenGigabit);
  EXPECT_THROW(cluster::validate({node, 0, 0}), Error);
  EXPECT_THROW(cluster::validate({node, 4, 6}), Error);
  // 8 ranks on one 4-core node: oversubscribed.
  EXPECT_THROW(cluster::validate({node, 1, 8}), Error);
}

TEST(Cluster, RunProducesCoherentResult) {
  const auto result = cluster::run(quick("jacobi", 4, 4));
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.gflops, 0.0);
  EXPECT_GT(result.joules, 0.0);
  EXPECT_GT(result.average_watts, 0.0);
  EXPECT_GT(result.mflops_per_watt, 0.0);
  EXPECT_NEAR(result.joules, result.average_watts * result.seconds,
              result.joules * 0.01);
  EXPECT_GT(result.counters[arch::PmuEvent::kInstRetired], 0.0);
}

TEST(Cluster, DeterministicRuns) {
  const auto a = cluster::run(quick("tealeaf2d", 4, 4));
  const auto b = cluster::run(quick("tealeaf2d", 4, 4));
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.joules, b.joules);
}

TEST(Cluster, FasterNicNeverSlower) {
  for (const char* name : {"hpl", "tealeaf3d", "ft"}) {
    const int ranks = workloads::make_workload(name)->gpu_accelerated() ? 4 : 8;
    const auto slow = cluster::run(quick(name, 4, ranks, net::NicKind::kGigabit));
    const auto fast = cluster::run(quick(name, 4, ranks));
    EXPECT_GE(slow.seconds, fast.seconds) << name;
  }
}

TEST(Cluster, MoreNodesReduceRuntimeForScalableWork) {
  EXPECT_GT(cluster::run(quick("jacobi", 2, 2)).seconds,
            cluster::run(quick("jacobi", 8, 8)).seconds);
}

TEST(Cluster, ZeroCopySlowsJacobi) {
  cluster::RunRequest request = quick("jacobi", 2, 2);
  const double hd_s = cluster::run(request).seconds;
  request.options.mem_model = sim::MemModel::kZeroCopy;
  const double zc_s = cluster::run(request).seconds;
  request.options.mem_model = sim::MemModel::kUnified;
  const double um_s = cluster::run(request).seconds;
  EXPECT_GT(zc_s / hd_s, 2.0);   // Table III's zero-copy penalty
  EXPECT_LT(um_s / hd_s, 1.15);  // unified ≈ host+device
}

TEST(Cluster, ScenarioReplayOrdering) {
  const auto runs = cluster::replay_scenarios(quick("tealeaf3d", 4, 4));
  EXPECT_LE(runs.ideal_network.seconds(), runs.measured.seconds());
  EXPECT_GT(runs.ideal_network.seconds(), 0.0);
}

TEST(Cluster, CountersScaleWithWork) {
  cluster::RunRequest request = quick("bt", 2, 4);
  const auto rs = cluster::run(request);
  request.options.size_scale *= 2.0;
  const auto rb = cluster::run(request);
  EXPECT_GT(rb.counters[arch::PmuEvent::kInstRetired],
            1.5 * rs.counters[arch::PmuEvent::kInstRetired]);
}

TEST(Cluster, CaviumRunsNpbSingleNode) {
  cluster::RunRequest request = quick("mg", 1, 32);
  request.config.node = systems::thunderx_server();
  const auto result = cluster::run(request);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_EQ(result.stats.total_net_bytes, 0);  // everything intra-node
}

}  // namespace
}  // namespace soc
