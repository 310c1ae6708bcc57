// Coverage for corners the module suites don't reach: DRAM copy
// durations, table engineering formatting, RunStats accessors,
// overlapped workload builds, and trace round-trips of non-blocking ops.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/error.h"
#include "common/table.h"
#include "mem/dram.h"
#include "msg/collectives.h"
#include "net/network.h"
#include "sim/engine.h"
#include "systems/machines.h"
#include "trace/export.h"
#include "workloads/workload.h"

namespace soc {
namespace {

TEST(Dram, CopyDurationIncludesCallOverhead) {
  mem::DramConfig dram;
  dram.copy_bandwidth = 10e9;
  dram.copy_call_overhead = 10 * kMicrosecond;
  EXPECT_EQ(mem::copy_duration(dram, 0), 10 * kMicrosecond);
  // 100 MB at 10 GB/s = 10 ms + overhead.
  EXPECT_EQ(mem::copy_duration(dram, 100 * kMB),
            10 * kMicrosecond + 10 * kMillisecond);
  EXPECT_THROW(mem::copy_duration(dram, -1), Error);
}

TEST(Table, EngineeringFormat) {
  EXPECT_EQ(TextTable::eng(0.0), "0.000");
  EXPECT_EQ(TextTable::eng(12.345), "12.345");
  EXPECT_EQ(TextTable::eng(123.456), "123.5");
  EXPECT_EQ(TextTable::eng(1.5e7), "1.5e+07");
  EXPECT_EQ(TextTable::eng(1e-4), "0.0001");
}

TEST(RunStatsAccessors, RatesFromTotals) {
  sim::RunStats stats;
  stats.makespan = 2 * kSecond;
  stats.total_flops = 8e9;
  stats.total_dram_bytes = 4 * kGB;
  stats.total_net_bytes = 1 * kGB;
  EXPECT_DOUBLE_EQ(stats.seconds(), 2.0);
  EXPECT_DOUBLE_EQ(stats.flops_per_second(), 4e9);
  EXPECT_DOUBLE_EQ(stats.dram_bytes_per_second(), 2e9);
  EXPECT_DOUBLE_EQ(stats.net_bytes_per_second(), 0.5e9);
  sim::RunStats empty;
  EXPECT_DOUBLE_EQ(empty.flops_per_second(), 0.0);
}

TEST(OverlapBuilds, JacobiAndTealeafRunOverlapped) {
  for (const char* name : {"jacobi", "tealeaf2d", "tealeaf3d"}) {
    cluster::RunRequest request;
    request.workload = name;
    request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 4, 4};
    request.options.size_scale = 0.05;
    const auto rb = cluster::run(request);
    request.options.overlap_halos = true;
    const auto ro = cluster::run(request);
    // Same work either way; overlap must not be slower.
    EXPECT_NEAR(ro.stats.total_flops, rb.stats.total_flops,
                rb.stats.total_flops * 0.01)
        << name;
    EXPECT_LE(ro.seconds, rb.seconds * 1.02) << name;
  }
}

TEST(OverlapBuilds, TraceRoundTripWithNonBlockingOps) {
  const auto w = workloads::make_workload("jacobi");
  workloads::BuildContext ctx;
  ctx.nodes = 4;
  ctx.ranks = 4;
  ctx.size_scale = 0.02;
  ctx.overlap_halos = true;
  const auto original = w->build(ctx);
  bool has_isend = false;
  bool has_wait = false;
  for (const auto& prog : original) {
    for (const auto& op : prog) {
      has_isend |= op.kind == sim::OpKind::kIsend;
      has_wait |= op.kind == sim::OpKind::kWaitAll;
    }
  }
  ASSERT_TRUE(has_isend);
  ASSERT_TRUE(has_wait);

  const auto restored =
      trace::import_programs(trace::export_programs(original));
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t r = 0; r < original.size(); ++r) {
    ASSERT_EQ(restored[r].size(), original[r].size());
    for (std::size_t i = 0; i < original[r].size(); ++i) {
      EXPECT_EQ(restored[r][i].kind, original[r][i].kind);
      EXPECT_EQ(restored[r][i].tag, original[r][i].tag);
    }
  }
}

TEST(EnergyBreakdownShares, GpuWorkloadIsGpuHeavy) {
  cluster::RunRequest request;
  request.workload = "jacobi";
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), 2, 2};
  request.options.size_scale = 0.1;
  const auto gpu_run = cluster::run(request);
  request.workload = "bt";
  request.config.ranks = 4;
  const auto cpu_run = cluster::run(request);
  // jacobi burns GPU energy; bt burns none.
  EXPECT_GT(gpu_run.energy.breakdown.gpu, 0.0);
  EXPECT_DOUBLE_EQ(cpu_run.energy.breakdown.gpu, 0.0);
  EXPECT_GT(cpu_run.energy.breakdown.cpu, gpu_run.energy.breakdown.cpu /
                                              gpu_run.seconds *
                                              cpu_run.seconds * 0.5);
}

TEST(BroadcastGroup, RootIndexBoundsChecked) {
  msg::ProgramSet ps(4);
  EXPECT_THROW(msg::broadcast_group(ps, {0, 1}, 5, 100), Error);
}

}  // namespace
}  // namespace soc
