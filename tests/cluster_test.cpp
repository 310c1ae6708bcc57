// Tests for systems/ and cluster/: machine configurations, the composed
// cost model, and end-to-end Cluster runs.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/error.h"
#include "net/network.h"
#include "systems/machines.h"
#include "workloads/workload.h"

namespace soc {
namespace {

cluster::RunOptions quick() {
  cluster::RunOptions options;
  options.size_scale = 0.05;
  return options;
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
  EXPECT_THROW(cluster::Cluster(cluster::ClusterConfig{node, 0, 0}), Error);
  EXPECT_THROW(cluster::Cluster(cluster::ClusterConfig{node, 4, 6}), Error);
  // 8 ranks on one 4-core node: oversubscribed.
  EXPECT_THROW(cluster::Cluster(cluster::ClusterConfig{node, 1, 8}), Error);
}

TEST(Cluster, RunProducesCoherentResult) {
  const cluster::Cluster tx(cluster::ClusterConfig{
      systems::jetson_tx1(net::NicKind::kTenGigabit), 4, 4});
  const auto result = tx.run(*workloads::make_workload("jacobi"), quick());
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
  const cluster::Cluster tx(cluster::ClusterConfig{
      systems::jetson_tx1(net::NicKind::kTenGigabit), 4, 4});
  const auto a = tx.run(*workloads::make_workload("tealeaf2d"), quick());
  const auto b = tx.run(*workloads::make_workload("tealeaf2d"), quick());
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.joules, b.joules);
}

TEST(Cluster, FasterNicNeverSlower) {
  for (const char* name : {"hpl", "tealeaf3d", "ft"}) {
    const auto w = workloads::make_workload(name);
    const int ranks = w->gpu_accelerated() ? 4 : 8;
    const cluster::Cluster slow(cluster::ClusterConfig{
        systems::jetson_tx1(net::NicKind::kGigabit), 4, ranks});
    const cluster::Cluster fast(cluster::ClusterConfig{
        systems::jetson_tx1(net::NicKind::kTenGigabit), 4, ranks});
    EXPECT_GE(slow.run(*w, quick()).seconds, fast.run(*w, quick()).seconds)
        << name;
  }
}

TEST(Cluster, MoreNodesReduceRuntimeForScalableWork) {
  const auto w = workloads::make_workload("jacobi");
  const auto small = cluster::Cluster(cluster::ClusterConfig{
      systems::jetson_tx1(net::NicKind::kTenGigabit), 2, 2});
  const auto large = cluster::Cluster(cluster::ClusterConfig{
      systems::jetson_tx1(net::NicKind::kTenGigabit), 8, 8});
  EXPECT_GT(small.run(*w, quick()).seconds, large.run(*w, quick()).seconds);
}

TEST(Cluster, ZeroCopySlowsJacobi) {
  const cluster::Cluster tx(cluster::ClusterConfig{
      systems::jetson_tx1(net::NicKind::kTenGigabit), 2, 2});
  const auto w = workloads::make_workload("jacobi");
  cluster::RunOptions zc = quick();
  zc.mem_model = sim::MemModel::kZeroCopy;
  cluster::RunOptions um = quick();
  um.mem_model = sim::MemModel::kUnified;
  const double hd_s = tx.run(*w, quick()).seconds;
  const double zc_s = tx.run(*w, zc).seconds;
  const double um_s = tx.run(*w, um).seconds;
  EXPECT_GT(zc_s / hd_s, 2.0);   // Table III's zero-copy penalty
  EXPECT_LT(um_s / hd_s, 1.15);  // unified ≈ host+device
}

TEST(Cluster, ScenarioReplayOrdering) {
  const cluster::Cluster tx(cluster::ClusterConfig{
      systems::jetson_tx1(net::NicKind::kTenGigabit), 4, 4});
  const auto runs =
      tx.replay_scenarios(*workloads::make_workload("tealeaf3d"), quick());
  EXPECT_LE(runs.ideal_network.seconds(), runs.measured.seconds());
  EXPECT_GT(runs.ideal_network.seconds(), 0.0);
}

TEST(Cluster, CountersScaleWithWork) {
  const cluster::Cluster tx(cluster::ClusterConfig{
      systems::jetson_tx1(net::NicKind::kTenGigabit), 2, 4});
  const auto w = workloads::make_workload("bt");
  cluster::RunOptions small = quick();
  cluster::RunOptions big = quick();
  big.size_scale = 2.0 * small.size_scale;
  const auto rs = tx.run(*w, small);
  const auto rb = tx.run(*w, big);
  EXPECT_GT(rb.counters[arch::PmuEvent::kInstRetired],
            1.5 * rs.counters[arch::PmuEvent::kInstRetired]);
}

TEST(Cluster, CaviumRunsNpbSingleNode) {
  const cluster::Cluster cavium(cluster::ClusterConfig{
      systems::thunderx_server(), 1, 32});
  const auto result = cavium.run(*workloads::make_workload("mg"), quick());
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_EQ(result.stats.total_net_bytes, 0);  // everything intra-node
}

}  // namespace
}  // namespace soc
