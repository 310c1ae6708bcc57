// Tests for net/ (NIC/switch/path model, microbenchmarks) and msg/
// (program builder, collectives: correctness, conservation, and
// deadlock-freedom through the real engine).
#include <gtest/gtest.h>

#include "common/error.h"
#include "msg/collectives.h"
#include "msg/program_set.h"
#include "net/microbench.h"
#include "net/network.h"
#include "sim/engine.h"

namespace soc {
namespace {

// Minimal cost model to execute collective programs.
class MsgCostModel : public sim::CostModel {
 public:
  SimTime cpu_compute_time(int, const sim::Op&) const override { return 0; }
  SimTime gpu_kernel_time(int, const sim::Op&) const override { return 0; }
  SimTime copy_time(int, const sim::Op&) const override { return 0; }
  SimTime message_latency(int s, int d) const override {
    return s == d ? 1 * kMicrosecond : 50 * kMicrosecond;
  }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return transfer_time(bytes, 1e9);
  }
  SimTime send_overhead(int) const override { return 1 * kMicrosecond; }
  SimTime recv_overhead(int) const override { return 1 * kMicrosecond; }
};

sim::RunStats run_collective(msg::ProgramSet& ps, int nodes) {
  MsgCostModel cost;
  sim::Engine engine(sim::Placement::block(ps.ranks(), nodes), cost);
  return engine.run(ps.programs());
}

TEST(Network, NicConfigsAreOrdered) {
  EXPECT_LT(net::gigabit_nic().effective_bandwidth,
            net::ten_gigabit_nic().effective_bandwidth);
  EXPECT_LT(net::ten_gigabit_nic().effective_bandwidth,
            net::server_ten_gigabit_nic().effective_bandwidth);
  EXPECT_GT(net::gigabit_nic().latency, net::ten_gigabit_nic().latency);
}

TEST(Network, TenGigCostsFiveWattsMore) {
  // The paper's "about 5 W per node" for the PCIe card.
  EXPECT_NEAR(net::ten_gigabit_nic().idle_power_w -
                  net::gigabit_nic().idle_power_w,
              4.7, 0.5);
}

TEST(Network, IntraNodeFasterThanInterNode) {
  const net::NetworkModel m(net::gigabit_nic(), net::SwitchConfig{}, 7e9);
  EXPECT_LT(m.latency(0, 0), m.latency(0, 1));
  EXPECT_LT(m.transfer_time(0, 0, 1 * kMB), m.transfer_time(0, 1, 1 * kMB));
}

TEST(Network, TransferTimeLinearInBytes) {
  const net::NetworkModel m(net::ten_gigabit_nic(), net::SwitchConfig{}, 7e9);
  const SimTime t1 = m.transfer_time(0, 1, 1 * kMB);
  const SimTime t2 = m.transfer_time(0, 1, 2 * kMB);
  EXPECT_NEAR(static_cast<double>(t2), 2.0 * static_cast<double>(t1),
              static_cast<double>(t1) * 0.01);
}

TEST(Microbench, ThroughputTracksNic) {
  const net::NetworkModel slow(net::gigabit_nic(), net::SwitchConfig{}, 7e9);
  const net::NetworkModel fast(net::ten_gigabit_nic(), net::SwitchConfig{},
                               7e9);
  const auto ts = net::measure_throughput(slow, 64 * kMB);
  const auto tf = net::measure_throughput(fast, 64 * kMB);
  // Within ~10% of the configured effective rates.
  EXPECT_NEAR(ts.gbit_per_second, 0.94, 0.1);
  EXPECT_NEAR(tf.gbit_per_second, 3.3, 0.35);
}

TEST(Microbench, LatencyTracksNic) {
  const net::NetworkModel slow(net::gigabit_nic(), net::SwitchConfig{}, 7e9);
  const net::NetworkModel fast(net::ten_gigabit_nic(), net::SwitchConfig{},
                               7e9);
  EXPECT_GT(net::measure_latency(slow).round_trip_ms,
            net::measure_latency(fast).round_trip_ms);
}

TEST(ProgramSet, PhaseMarkersOnAllRanks) {
  msg::ProgramSet ps(3);
  const int phase = ps.begin_phase();
  EXPECT_EQ(phase, 1);
  for (const sim::Program& p : ps.programs()) {
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0].kind, sim::OpKind::kPhase);
  }
}

TEST(ProgramSet, SendRecvEmitsMatchingPair) {
  msg::ProgramSet ps(2);
  ps.send_recv(0, 1, 4096);
  const auto& progs = ps.programs();
  ASSERT_EQ(progs[0].size(), 1u);
  ASSERT_EQ(progs[1].size(), 1u);
  EXPECT_EQ(progs[0][0].kind, sim::OpKind::kSend);
  EXPECT_EQ(progs[1][0].kind, sim::OpKind::kRecv);
  EXPECT_EQ(progs[0][0].tag, progs[1][0].tag);
  EXPECT_EQ(progs[0][0].bytes, 4096);
}

TEST(ProgramSet, TagsAreUnique) {
  msg::ProgramSet ps(2);
  const int t1 = ps.next_tag();
  const int t2 = ps.next_tag();
  EXPECT_NE(t1, t2);
}

TEST(ProgramSet, RejectsSelfMessage) {
  msg::ProgramSet ps(2);
  EXPECT_THROW(ps.send_recv(1, 1, 64), Error);
}

// --- Collective correctness over a range of communicator sizes ---

class CollectiveSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizeTest, BroadcastDeliversToAllRanks) {
  const int p = GetParam();
  msg::ProgramSet ps(p);
  msg::broadcast(ps, 0, 64 * kKiB);
  Bytes received[32] = {};
  for (int r = 0; r < p; ++r) {
    for (const sim::Op& op : ps.programs()[r]) {
      if (op.kind == sim::OpKind::kRecv) received[r] += op.bytes;
    }
  }
  for (int r = 1; r < p; ++r) EXPECT_EQ(received[r], 64 * kKiB) << r;
  EXPECT_EQ(received[0], 0);  // root receives nothing
  run_collective(ps, 1);      // must complete without deadlock
}

TEST_P(CollectiveSizeTest, BroadcastTotalTrafficIsPMinusOneMessages) {
  const int p = GetParam();
  msg::ProgramSet ps(p);
  msg::broadcast(ps, 0, 1000);
  int sends = 0;
  for (const sim::Program& prog : ps.programs()) {
    for (const sim::Op& op : prog) {
      if (op.kind == sim::OpKind::kSend) ++sends;
    }
  }
  EXPECT_EQ(sends, p - 1);
}

TEST_P(CollectiveSizeTest, ReduceConvergesToRoot) {
  const int p = GetParam();
  msg::ProgramSet ps(p);
  msg::reduce(ps, 0, 1000);
  // Every non-root rank sends exactly once; root only receives.
  for (int r = 0; r < p; ++r) {
    int sends = 0;
    for (const sim::Op& op : ps.programs()[r]) {
      if (op.kind == sim::OpKind::kSend) ++sends;
    }
    if (r == 0) {
      EXPECT_EQ(sends, 0);
    } else {
      EXPECT_EQ(sends, 1);
    }
  }
  run_collective(ps, 1);
}

TEST_P(CollectiveSizeTest, AllreduceCompletesAcrossNodes) {
  const int p = GetParam();
  msg::ProgramSet ps(p);
  msg::allreduce(ps, 8 * kKiB);
  const sim::RunStats stats = run_collective(ps, p);  // one rank per node
  if (p > 1) {
    EXPECT_GT(stats.makespan, 0);
  } else {
    EXPECT_EQ(stats.makespan, 0);  // single rank: nothing to reduce
  }
}

TEST_P(CollectiveSizeTest, AlltoallEveryPairExchanges) {
  const int p = GetParam();
  if (p < 2) return;
  msg::ProgramSet ps(p);
  msg::alltoall(ps, 512);
  // Each rank sends to exactly p-1 distinct peers.
  for (int r = 0; r < p; ++r) {
    std::set<int> peers;
    for (const sim::Op& op : ps.programs()[r]) {
      if (op.kind == sim::OpKind::kSend) peers.insert(op.peer);
    }
    EXPECT_EQ(static_cast<int>(peers.size()), p - 1) << "rank " << r;
  }
  run_collective(ps, p);
}

// Powers of two AND awkward sizes (3, 5, 12) exercise both algorithm
// families (recursive doubling / XOR pairs vs tree+ring fallbacks).
INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 16, 32));

TEST(Collectives, BroadcastNonZeroRoot) {
  msg::ProgramSet ps(5);
  msg::broadcast(ps, 3, 100);
  Bytes at_root = 0;
  for (const sim::Op& op : ps.programs()[3]) {
    if (op.kind == sim::OpKind::kRecv) at_root += op.bytes;
  }
  EXPECT_EQ(at_root, 0);
  run_collective(ps, 1);
}

TEST(Collectives, BroadcastGroupOnlyTouchesMembers) {
  msg::ProgramSet ps(8);
  msg::broadcast_group(ps, {0, 2, 4, 6}, 0, 100);
  for (int r : {1, 3, 5, 7}) {
    EXPECT_TRUE(ps.programs()[r].empty()) << "rank " << r;
  }
  run_collective(ps, 4);
}

TEST(Collectives, TreeBroadcastFasterThanSequential) {
  // A binomial tree over 16 ranks beats 15 sequential root sends.
  const int p = 16;
  msg::ProgramSet tree(p);
  msg::broadcast(tree, 0, 1 * kMB);
  msg::ProgramSet linear(p);
  for (int r = 1; r < p; ++r) linear.send_recv(0, r, 1 * kMB);

  MsgCostModel cost;
  sim::Engine te(sim::Placement::block(p, p), cost);
  sim::Engine le(sim::Placement::block(p, p), cost);
  EXPECT_LT(te.run(tree.programs()).makespan,
            le.run(linear.programs()).makespan);
}

}  // namespace
}  // namespace soc
