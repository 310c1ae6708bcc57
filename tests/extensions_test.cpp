// Tests for the extension features: cache prefetching, the extended
// collectives (scatter, reduce-scatter, ring allreduce), switch-fabric
// bisection contention, and trace export/import round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "arch/cache.h"
#include "common/rng.h"
#include "common/error.h"
#include "common/io.h"
#include "cluster/cluster.h"
#include "msg/collectives.h"
#include "net/network.h"
#include "systems/machines.h"
#include "msg/program_set.h"
#include "sim/engine.h"
#include "trace/export.h"
#include "trace/timeline.h"
#include "workloads/workload.h"

namespace soc {
namespace {

class FlatCost : public sim::CostModel {
 public:
  SimTime cpu_compute_time(int, const sim::Op&) const override { return 0; }
  SimTime gpu_kernel_time(int, const sim::Op&) const override { return 0; }
  SimTime copy_time(int, const sim::Op&) const override { return 0; }
  SimTime message_latency(int s, int d) const override {
    return s == d ? 0 : 10 * kMicrosecond;
  }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return transfer_time(bytes, 1e9);
  }
  SimTime send_overhead(int) const override { return 0; }
  SimTime recv_overhead(int) const override { return 0; }
};

TEST(Prefetcher, NextLinePrefetchHelpsSequentialStream) {
  arch::CacheConfig base{32 * kKiB, 4, 64};
  arch::CacheConfig prefetching = base;
  prefetching.prefetch_lines = 2;
  arch::Cache plain(base);
  arch::Cache pf(prefetching);
  for (std::uint64_t a = 0; a < 1 * kMiB; a += 8) {
    plain.access(a);
    pf.access(a);
  }
  EXPECT_LT(pf.stats().miss_ratio(), plain.stats().miss_ratio() * 0.6);
  EXPECT_GT(pf.stats().prefetches, 0u);
}

TEST(Prefetcher, NoHelpOnRandomAccess) {
  arch::CacheConfig base{32 * kKiB, 4, 64};
  arch::CacheConfig prefetching = base;
  prefetching.prefetch_lines = 2;
  arch::Cache plain(base);
  arch::Cache pf(prefetching);
  Rng rng(5);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t a = rng.next_below(64 * kMiB);
    plain.access(a);
    pf.access(a);
  }
  // Random traffic gains nothing (and the pollution is modest).
  EXPECT_NEAR(pf.stats().miss_ratio(), plain.stats().miss_ratio(), 0.05);
}

class RingSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(RingSizeTest, RingAllreduceCompletes) {
  const int p = GetParam();
  msg::ProgramSet ps(p);
  msg::allreduce_ring(ps, 1 * kMiB);
  FlatCost cost;
  sim::Engine engine(sim::Placement::block(p, p), cost);
  const sim::RunStats stats = engine.run(ps.programs());
  if (p > 1) {
    EXPECT_GT(stats.makespan, 0);
    // Every rank sends exactly 2(P-1) chunks.
    for (const sim::RankStats& rs : stats.ranks) {
      EXPECT_EQ(rs.messages_sent, 2 * (p - 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSizeTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 16));

TEST(RingAllreduce, BeatsRecursiveDoublingOnLargePayloads) {
  const int p = 16;
  FlatCost cost;
  auto time_of = [&](auto emit) {
    msg::ProgramSet ps(p);
    emit(ps);
    sim::Engine engine(sim::Placement::block(p, p), cost);
    return engine.run(ps.programs()).makespan;
  };
  const SimTime rd = time_of([](msg::ProgramSet& ps) {
    msg::allreduce(ps, 32 * kMiB);
  });
  const SimTime ring = time_of([](msg::ProgramSet& ps) {
    msg::allreduce_ring(ps, 32 * kMiB);
  });
  EXPECT_LT(ring, rd);
  // And the opposite at latency-bound sizes.
  const SimTime rd_small = time_of([](msg::ProgramSet& ps) {
    msg::allreduce(ps, 64);
  });
  const SimTime ring_small = time_of([](msg::ProgramSet& ps) {
    msg::allreduce_ring(ps, 64);
  });
  EXPECT_GT(ring_small, rd_small);
}

TEST(Bisection, PortCapThrottlesConvergingFlows) {
  // 8 senders converge on one destination node: uncapped the eager
  // payloads land back to back, but a capped switch drains the
  // destination's output port at bisection_bandwidth / nodes, queueing
  // the arrivals one behind another.
  FlatCost cost;
  std::vector<sim::Program> programs(16);
  for (int s = 1; s <= 8; ++s) {
    programs[s].push_back(sim::isend_op(0, 10 * kMB, s));
    programs[s].push_back(sim::wait_all_op());
    programs[0].push_back(sim::irecv_op(s, 10 * kMB, s));
  }
  programs[0].push_back(sim::wait_all_op());
  sim::EngineConfig uncapped;
  sim::Engine fast(sim::Placement::block(16, 16), cost, uncapped);
  const SimTime t_fast = fast.run(programs).makespan;

  sim::EngineConfig capped = uncapped;
  capped.bisection_bandwidth = 1e9;  // one link's rate across 16 ports
  sim::Engine slow(sim::Placement::block(16, 16), cost, capped);
  const SimTime t_slow = slow.run(programs).makespan;
  EXPECT_GT(t_slow, 6 * t_fast);
}

TEST(Bisection, GenerousFabricIsTransparent) {
  FlatCost cost;
  std::vector<sim::Program> programs(4);
  programs[0].push_back(sim::send_op(1, 1 * kMB, 0));
  programs[1].push_back(sim::recv_op(0, 1 * kMB, 0));
  sim::EngineConfig uncapped;
  sim::EngineConfig generous;
  generous.bisection_bandwidth = 1e15;
  sim::Engine a(sim::Placement::block(4, 4), cost, uncapped);
  sim::Engine b(sim::Placement::block(4, 4), cost, generous);
  EXPECT_EQ(a.run(programs).makespan, b.run(programs).makespan);
}

TEST(TraceExport, RoundTripPreservesPrograms) {
  const auto w = workloads::make_workload("tealeaf2d");
  workloads::BuildContext ctx;
  ctx.nodes = 4;
  ctx.ranks = 4;
  ctx.size_scale = 0.02;
  const auto original = w->build(ctx);
  const auto restored = trace::import_programs(
      trace::export_programs(original));
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t r = 0; r < original.size(); ++r) {
    ASSERT_EQ(restored[r].size(), original[r].size()) << "rank " << r;
    for (std::size_t i = 0; i < original[r].size(); ++i) {
      const sim::Op& a = original[r][i];
      const sim::Op& b = restored[r][i];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.peer, b.peer);
      EXPECT_EQ(a.tag, b.tag);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(a.dram_bytes, b.dram_bytes);
      EXPECT_EQ(a.phase, b.phase);
      EXPECT_EQ(a.mem_model, b.mem_model);
      EXPECT_EQ(a.double_precision, b.double_precision);
      EXPECT_DOUBLE_EQ(a.flops, b.flops);
      EXPECT_DOUBLE_EQ(a.instructions, b.instructions);
    }
  }
}

TEST(TraceExport, ReplayOfImportedTraceMatches) {
  const auto w = workloads::make_workload("jacobi");
  workloads::BuildContext ctx;
  ctx.nodes = 2;
  ctx.ranks = 2;
  ctx.size_scale = 0.02;
  const auto original = w->build(ctx);
  const auto restored =
      trace::import_programs(trace::export_programs(original));
  FlatCost cost;
  sim::Engine a(sim::Placement::block(2, 2), cost);
  sim::Engine b(sim::Placement::block(2, 2), cost);
  EXPECT_EQ(a.run(original).makespan, b.run(restored).makespan);
}

TEST(TraceExport, RejectsMalformedInput) {
  EXPECT_THROW(trace::import_programs("not a trace"), Error);
  EXPECT_THROW(trace::import_programs("soctrace v1 ranks=2\ncpu 1 1 1 0 0\n"),
               Error);  // op before rank directive
  EXPECT_THROW(trace::import_programs(
                   "soctrace v1 ranks=1\nrank 0\nwarp 9 9\n"),
               Error);  // unknown op
  EXPECT_THROW(trace::import_programs(
                   "soctrace v1 ranks=1\nrank 5\n"),
               Error);  // rank out of range
}

TEST(TraceExport, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    "soccluster_trace_test.soctrace";
  std::vector<sim::Program> programs(2);
  programs[0] = {sim::phase_op(1), sim::send_op(1, 4096, 7)};
  programs[1] = {sim::phase_op(1), sim::recv_op(0, 4096, 7)};
  write_text(path.string(), trace::export_programs(programs));
  const auto loaded = trace::load_trace(path.string());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0][1].bytes, 4096);
  std::filesystem::remove(path);
}

TEST(TraceExport, CommentsAndBlankLinesIgnored) {
  const auto programs = trace::import_programs(
      "# a comment\n\nsoctrace v1 ranks=1\n# mid comment\nrank 0\n"
      "phase 3\n\n");
  ASSERT_EQ(programs.size(), 1u);
  ASSERT_EQ(programs[0].size(), 1u);
  EXPECT_EQ(programs[0][0].phase, 3);
}

TEST(Topology, FatTreeAddsCrossPodHops) {
  net::SwitchConfig sw;
  sw.topology = net::Topology::kFatTree2;
  sw.pod_size = 4;
  const net::NetworkModel m(net::ten_gigabit_nic(), sw, 7e9);
  EXPECT_EQ(m.hops(0, 0), 0);
  EXPECT_EQ(m.hops(0, 3), 1);   // same pod
  EXPECT_EQ(m.hops(0, 4), 3);   // cross pod
  EXPECT_GT(m.latency(0, 4), m.latency(0, 3));
  EXPECT_LT(m.latency(0, 3), m.latency(0, 4));
}

TEST(Topology, SingleSwitchIsUniform) {
  const net::NetworkModel m(net::ten_gigabit_nic(), net::SwitchConfig{}, 7e9);
  EXPECT_EQ(m.hops(0, 1), 1);
  EXPECT_EQ(m.hops(0, 15), 1);
  EXPECT_EQ(m.latency(0, 1), m.latency(3, 12));
}

/// `workload` at `scale` of its problem size on `nodes` TX1 nodes, one
/// rank each.
cluster::RunResult tx1_run(const std::string& workload, int nodes,
                           double scale) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                    nodes};
  request.options.size_scale = scale;
  return cluster::run(request);
}

TEST(PowerBreakdown, ComponentsSumToTotal) {
  const auto r = tx1_run("jacobi", 2, 0.05);
  const power::EnergyBreakdown& e = r.energy.breakdown;
  EXPECT_NEAR(e.idle + e.cpu + e.gpu + e.nic + e.dram, r.joules,
              r.joules * 1e-6);
  EXPECT_GT(e.gpu, 0.0);   // jacobi works the GPU
  EXPECT_GT(e.nic, 0.0);   // NIC idle power always present
}


TEST(Timeline, RendersStripsForEveryComponent) {
  const auto r = tx1_run("tealeaf3d", 2, 0.05);
  const std::string t = trace::render_timeline(r.stats);
  EXPECT_NE(t.find("node0 cpu"), std::string::npos);
  EXPECT_NE(t.find("node0 gpu"), std::string::npos);
  EXPECT_NE(t.find("node1 nic"), std::string::npos);
  EXPECT_NE(t.find("legend"), std::string::npos);
  // The GPU lane must show real utilization glyphs, not all blanks.
  const std::size_t gpu_row = t.find("node0 gpu |");
  const std::string strip = t.substr(gpu_row + 11, 72);
  EXPECT_NE(strip.find_first_not_of(' '), std::string::npos);
}

TEST(Timeline, SummarizesExtraNodes) {
  const auto r = tx1_run("jacobi", 16, 0.02);
  trace::TimelineOptions t;
  t.max_nodes = 4;
  const std::string s = trace::render_timeline(r.stats, t);
  EXPECT_NE(s.find("12 more nodes not shown"), std::string::npos);
}

TEST(Timeline, RejectsNarrowWidth) {
  sim::RunStats stats;
  stats.makespan = kSecond;
  trace::TimelineOptions t;
  t.width = 2;
  EXPECT_THROW(trace::render_timeline(stats, t), Error);
}

}  // namespace
}  // namespace soc
