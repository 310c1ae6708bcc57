// Tests for sim/: event queue ordering, op builders, and the replay
// engine's semantics (timing, resource contention, message matching,
// time scaling, accounting, determinism, failure modes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/op.h"

namespace soc::sim {
namespace {

// Fixed-cost model for deterministic engine arithmetic.
class FixedCostModel : public CostModel {
 public:
  SimTime cpu_time = 10 * kMillisecond;
  SimTime gpu_time = 20 * kMillisecond;
  SimTime copy = 5 * kMillisecond;
  SimTime latency = 1 * kMillisecond;
  double bandwidth = 1e9;  // bytes/s
  SimTime overhead = 0;

  SimTime cpu_compute_time(int, const Op&) const override { return cpu_time; }
  SimTime gpu_kernel_time(int, const Op&) const override { return gpu_time; }
  SimTime copy_time(int, const Op&) const override { return copy; }
  SimTime message_latency(int src, int dst) const override {
    return src == dst ? 0 : latency;
  }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return transfer_time(bytes, bandwidth);
  }
  SimTime send_overhead(int) const override { return overhead; }
  SimTime recv_overhead(int) const override { return overhead; }
};

/// The message of the soc::Error the run throws, or "" if it completes.
std::string run_error(Engine& engine, const std::vector<Program>& programs) {
  try {
    engine.run(programs);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(KeyedEventQueue, OrdersByTime) {
  KeyedEventQueue q;
  q.push(30, 0, 3);
  q.push(10, 0, 1);
  q.push(20, 0, 2);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

// Equal times break on the key, never on push order: every permutation of
// the same three pushes pops identically.
TEST(KeyedEventQueue, TiesBreakByKeyWhateverThePushOrder) {
  int order[] = {0, 1, 2};
  do {
    KeyedEventQueue q;
    for (const int i : order) {
      q.push(5, static_cast<std::uint64_t>(10 * (i + 1)), i);
    }
    EXPECT_EQ(q.top().key, 10u);
    EXPECT_EQ(q.pop().payload, 0);
    EXPECT_EQ(q.pop().payload, 1);
    EXPECT_EQ(q.pop().payload, 2);
  } while (std::next_permutation(std::begin(order), std::end(order)));
}

TEST(KeyedEventQueue, InterleavedPushPopKeepsGlobalOrder) {
  KeyedEventQueue q;
  q.push(10, 1, 1);
  q.push(30, 1, 3);
  EXPECT_EQ(q.pop().payload, 1);
  q.push(20, 1, 2);  // earlier than the top pushed before the pop
  q.push(10, 0, 9);  // equal to the last popped time, smaller key
  EXPECT_EQ(q.pop().payload, 9);
  EXPECT_EQ(q.pop().payload, 2);
  q.push(25, 1, 4);
  EXPECT_EQ(q.top().time, 25);
  EXPECT_EQ(q.pop().payload, 4);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

// A push at the time just popped (a same-time wake-up) still sorts by key
// among the events already queued at that time.
TEST(KeyedEventQueue, EqualTimePushAfterPopOrdersByKey) {
  KeyedEventQueue q;
  q.push(5, 1, 1);
  q.push(5, 4, 4);
  q.push(9, 0, 99);
  EXPECT_EQ(q.pop().payload, 1);
  q.push(5, 5, 5);
  q.push(5, 2, 2);
  q.push(5, 3, 3);
  for (const int expected : {2, 3, 4, 5, 99}) {
    EXPECT_EQ(q.pop().payload, expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(KeyedEventQueue, TopTracksPartialDrain) {
  KeyedEventQueue q;
  q.push(7, 2, 2);
  q.push(12, 0, 3);
  q.push(7, 1, 1);
  EXPECT_EQ(q.top().time, 7);
  EXPECT_EQ(q.top().key, 1u);
  q.pop();
  EXPECT_EQ(q.top().time, 7);  // second equal-time event still queued
  EXPECT_EQ(q.top().key, 2u);
  q.pop();
  EXPECT_EQ(q.top().time, 12);
  EXPECT_EQ(q.size(), 1u);
}

TEST(KeyedEventQueue, ReserveDoesNotChangeOrder) {
  KeyedEventQueue small;
  KeyedEventQueue big;
  big.reserve(1024);
  for (int i = 0; i < 64; ++i) {
    const SimTime t = (i * 7) % 13;
    const auto key = static_cast<std::uint64_t>((i * 5) % 64);
    small.push(t, key, i);
    big.push(t, key, i);
  }
  while (!small.empty()) {
    const KeyedEvent a = small.pop();
    const KeyedEvent b = big.pop();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.payload, b.payload);
  }
  EXPECT_TRUE(big.empty());
}

TEST(KeyedEventQueue, PopEmptyThrows) {
  KeyedEventQueue q;
  EXPECT_THROW(q.pop(), Error);
  q.push(1, 0, 0);
  q.pop();
  EXPECT_THROW(q.pop(), Error);
}

TEST(KeyedEventQueue, NegativeTimeRejected) {
  KeyedEventQueue q;
  EXPECT_THROW(q.push(-1, 0, 0), Error);
  EXPECT_TRUE(q.empty());
}

// Random interleaved pushes and pops, checked pop by pop against an
// ordered-set oracle.  Times cluster on the last popped time, so equal
// times are common, and a third of the pushes land exactly on it with
// keys drawn from the whole range: many fall below the last popped key,
// as a same-time wake-up's does.  The queue is drained, then reused after
// clear().
TEST(KeyedEventQueue, MatchesOrderedSetOracle) {
  Rng rng(0x5eed);
  KeyedEventQueue q;
  std::set<std::pair<SimTime, std::uint64_t>> oracle;
  SimTime last_time = 0;
  std::uint64_t last_key = 0;
  std::size_t pops = 0;
  std::size_t pushes_below_last_pop = 0;
  const auto pop_and_check = [&] {
    ASSERT_EQ(q.size(), oracle.size());
    const auto expected = *oracle.begin();
    EXPECT_EQ(q.top().time, expected.first);
    EXPECT_EQ(q.top().key, expected.second);
    const KeyedEvent e = q.pop();
    oracle.erase(oracle.begin());
    ASSERT_EQ(e.time, expected.first) << "pop " << pops;
    ASSERT_EQ(e.key, expected.second) << "pop " << pops;
    ASSERT_EQ(e.payload, static_cast<std::int32_t>(e.key)) << "pop " << pops;
    last_time = e.time;
    last_key = e.key;
    ++pops;
  };
  for (int round = 0; round < 2; ++round) {
    for (int op = 0; op < 100'000; ++op) {
      if (!oracle.empty() && rng.next_bool(0.45)) {
        pop_and_check();
        if (HasFailure()) return;  // one divergence, not 100 k of them
        continue;
      }
      const SimTime time =
          rng.next_bool(0.35)
              ? last_time
              : last_time + static_cast<SimTime>(rng.next_below(8));
      std::uint64_t key = rng.next_below(1 << 16);
      while (oracle.count({time, key}) != 0) key = rng.next_below(1 << 16);
      q.push(time, key, static_cast<std::int32_t>(key));
      oracle.insert({time, key});
      if (pops > 0 && time == last_time && key < last_key) {
        ++pushes_below_last_pop;
      }
    }
    while (!oracle.empty() && !HasFailure()) pop_and_check();
    EXPECT_TRUE(q.empty());

    // Leave events behind, then clear() before the next round.
    for (std::uint64_t key = 0; key < 10; ++key) {
      q.push(last_time + 1, key, 0);
    }
    q.clear();
    EXPECT_TRUE(q.empty());
    last_time = 0;
    last_key = 0;
  }
  EXPECT_GT(pops, 80'000u);
  EXPECT_GT(pushes_below_last_pop, 10'000u);
}

TEST(Placement, BlockAssignsContiguously) {
  const Placement p = Placement::block(8, 4);
  EXPECT_EQ(p.node_of[0], 0);
  EXPECT_EQ(p.node_of[1], 0);
  EXPECT_EQ(p.node_of[6], 3);
  EXPECT_EQ(p.node_of[7], 3);
}

TEST(Placement, RejectsUnevenSplit) {
  EXPECT_THROW(Placement::block(7, 4), Error);
}

TEST(OpBuilders, FieldsArePopulated) {
  const Op c = cpu_op(100, 50, 64, 3, 7);
  EXPECT_EQ(c.kind, OpKind::kCpuCompute);
  EXPECT_EQ(c.profile, 3);
  EXPECT_EQ(c.phase, 7);
  const Op g = gpu_op(1e9, 1024, MemModel::kUnified, 1, 4096, false);
  EXPECT_EQ(g.kind, OpKind::kGpuKernel);
  EXPECT_EQ(g.mem_model, MemModel::kUnified);
  EXPECT_FALSE(g.double_precision);
  EXPECT_DOUBLE_EQ(g.parallelism, 4096.0);
  const Op s = send_op(2, 512, 9);
  EXPECT_EQ(s.peer, 2);
  EXPECT_EQ(s.tag, 9);
}

TEST(Engine, SingleRankComputeTime) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {cpu_op(1, 1, 0, 0), cpu_op(1, 1, 0, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, 2 * cost.cpu_time);
  EXPECT_EQ(stats.ranks[0].cpu_busy, 2 * cost.cpu_time);
}

TEST(Engine, GpuSharedFifoSerializes) {
  // Two ranks on one node both launch a kernel: the second waits.
  FixedCostModel cost;
  Engine engine(Placement::block(2, 1), cost);
  std::vector<Program> programs(2);
  programs[0] = {gpu_op(1, 0, MemModel::kHostDevice)};
  programs[1] = {gpu_op(1, 0, MemModel::kHostDevice)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, 2 * cost.gpu_time);
  EXPECT_EQ(stats.ranks[0].gpu_queue_wait + stats.ranks[1].gpu_queue_wait,
            cost.gpu_time);
}

TEST(Engine, GpusOnDifferentNodesRunInParallel) {
  FixedCostModel cost;
  Engine engine(Placement::block(2, 2), cost);
  std::vector<Program> programs(2);
  programs[0] = {gpu_op(1, 0, MemModel::kHostDevice)};
  programs[1] = {gpu_op(1, 0, MemModel::kHostDevice)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, cost.gpu_time);
}

TEST(Engine, RendezvousMessageTiming) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;  // force rendezvous
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 1'000'000, 0)};  // 1 MB at 1 GB/s = 1 ms
  programs[1] = {recv_op(0, 1'000'000, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, cost.latency + 1 * kMillisecond);
  EXPECT_EQ(stats.ranks[0].net_bytes_sent, 1'000'000);
  EXPECT_EQ(stats.ranks[1].net_bytes_received, 1'000'000);
}

TEST(Engine, RendezvousSenderBlocksUntilReceiverPosts) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 1'000'000, 0)};
  // Receiver computes first (10 ms), then posts the receive.
  programs[1] = {cpu_op(1, 1, 0, 0), recv_op(0, 1'000'000, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.makespan, cost.cpu_time + cost.latency + 1 * kMillisecond);
  EXPECT_GE(stats.ranks[0].send_blocked, cost.cpu_time);
}

TEST(Engine, EagerSenderDoesNotBlock) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 1 * kMiB;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  // Sender: eager send, then long compute.  Receiver: compute, then recv.
  programs[0] = {send_op(1, 1024, 0), cpu_op(1, 1, 0, 0)};
  programs[1] = {cpu_op(1, 1, 0, 0), recv_op(0, 1024, 0)};
  const RunStats stats = engine.run(programs);
  // Sender finishes its compute immediately after the (non-blocking) send.
  EXPECT_EQ(stats.ranks[0].finish_time, cost.cpu_time);
}

TEST(Engine, IntraNodeMessageUsesNoNic) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(2, 1), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 4096, 0)};
  programs[1] = {recv_op(0, 4096, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[0].net_bytes_sent, 0);
  EXPECT_EQ(stats.ranks[0].intra_bytes_sent, 4096);
  EXPECT_EQ(stats.total_net_bytes, 0);
}

TEST(Engine, NicContentionSerializesTransfers) {
  // Two ranks on node 0 send large messages to two ranks on node 1:
  // both transfers share the same NICs and serialize.
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(4, 2), cost, config);
  std::vector<Program> programs(4);
  programs[0] = {send_op(2, 1'000'000, 0)};
  programs[1] = {send_op(3, 1'000'000, 1)};
  programs[2] = {recv_op(0, 1'000'000, 0)};
  programs[3] = {recv_op(1, 1'000'000, 1)};
  const RunStats stats = engine.run(programs);
  // Each transfer takes latency + 1 ms; they cannot overlap on the NIC.
  EXPECT_GE(stats.makespan, 2 * (1 * kMillisecond) + cost.latency);
}

TEST(Engine, DeadlockDetected) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  // Both send first: classic rendezvous deadlock.
  programs[0] = {send_op(1, 1'000'000, 0), recv_op(1, 1'000'000, 1)};
  programs[1] = {send_op(0, 1'000'000, 1), recv_op(0, 1'000'000, 0)};
  EXPECT_EQ(run_error(engine, programs),
            "deadlock: wait-for cycle rank 0 (send to 1, tag 0) -> rank 1 "
            "(send to 0, tag 1) -> rank 0; 2 of 2 ranks blocked");
}

TEST(Engine, MismatchedTagDeadlocks) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 0;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 1'000'000, 7)};
  programs[1] = {recv_op(0, 1'000'000, 8)};
  EXPECT_EQ(run_error(engine, programs),
            "deadlock: wait-for cycle rank 0 (send to 1, tag 7) -> rank 1 "
            "(recv from 0, tag 8) -> rank 0; 2 of 2 ranks blocked");
}

// Without a cycle the report names every blocked rank's wait: a recv
// whose sender already finished, and a kWaitAll on a request nothing
// will ever complete.
TEST(Engine, DeadlockWithoutCycleNamesEachWait) {
  FixedCostModel cost;
  Engine engine(Placement::block(3, 1), cost);
  std::vector<Program> programs(3);
  programs[0] = {recv_op(1, 100, 5)};
  programs[2] = {irecv_op(1, 100, 9), wait_all_op()};
  EXPECT_EQ(run_error(engine, programs),
            "deadlock: no wait-for cycle; rank 0 (recv from 1, tag 5) -> "
            "rank 1 (finished), rank 2 (waitall, 1 unresolved request); "
            "2 of 3 ranks blocked");
}

// Endpoints left unmatched when every rank has finished fail the run
// instead of returning normal stats, on the instant path (one node) and
// the protocol path (two nodes) alike.
TEST(Engine, UnreceivedSendFailsTheRun) {
  FixedCostModel cost;
  for (const int nodes : {1, 2}) {
    Engine engine(Placement::block(2, nodes), cost);
    std::vector<Program> programs(2);
    programs[0] = {send_op(1, 100, 7)};
    try {
      engine.run(programs);
      ADD_FAILURE() << "lone eager send did not fail the run";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("send never received src=0 dst=1 tag=7"),
                std::string::npos)
          << what;
    }
  }
}

TEST(Engine, IrecvWithoutWaitAllOrSendFailsTheRun) {
  FixedCostModel cost;
  for (const int nodes : {1, 2}) {
    Engine engine(Placement::block(2, nodes), cost);
    std::vector<Program> programs(2);
    programs[1] = {irecv_op(0, 100, 7)};
    try {
      engine.run(programs);
      ADD_FAILURE() << "unmatched irecv did not fail the run";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("irecv never matched src=0 dst=1 tag=7"),
                std::string::npos)
          << what;
    }
  }
}

// Tags match exactly: t and t + 2^21, or -1 and 2^21 - 1, are as distinct
// as 6 and 5.  Rank 1 receives the second message first, so a receive
// that took the other tag's message would finish 10 ms early.
TEST(Engine, CrossedTagsMatchExactly) {
  FixedCostModel cost;
  for (const int nodes : {1, 2}) {
    const auto run = [&](int first_tag, int second_tag) {
      Engine engine(Placement::block(2, nodes), cost);
      std::vector<Program> programs(2);
      programs[0] = {isend_op(1, 1024, first_tag), cpu_op(1, 1, 0, 0),
                     isend_op(1, 1024, second_tag), wait_all_op()};
      programs[1] = {recv_op(0, 1024, second_tag), cpu_op(1, 1, 0, 0),
                     recv_op(0, 1024, first_tag)};
      return engine.run(programs);
    };
    const RunStats plain = run(6, 5);
    EXPECT_GE(plain.ranks[1].finish_time, 2 * cost.cpu_time);
    for (const auto& [first, second] :
         {std::pair{5 + (1 << 21), 5}, std::pair{-1, (1 << 21) - 1}}) {
      const RunStats crossed = run(first, second);
      EXPECT_EQ(crossed.ranks[1].finish_time, plain.ranks[1].finish_time)
          << "tags " << first << ", " << second << " on " << nodes
          << " node(s)";
      EXPECT_EQ(crossed.event_checksum, plain.event_checksum);
    }
  }
}

TEST(Engine, SelfMessageRejected) {
  FixedCostModel cost;
  Engine engine(Placement::block(2, 2), cost);
  std::vector<Program> programs(2);
  programs[0] = {send_op(0, 10, 0)};
  EXPECT_THROW(engine.run(programs), Error);
}

TEST(Engine, PhaseComputeAccounting) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {phase_op(1), cpu_op(1, 1, 0, 0), phase_op(2),
                 cpu_op(1, 1, 0, 0), cpu_op(1, 1, 0, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[0].phase_compute.at(1), cost.cpu_time);
  EXPECT_EQ(stats.ranks[0].phase_compute.at(2), 2 * cost.cpu_time);
}

TEST(Engine, CopiesAreNotUsefulCompute) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {phase_op(1), copy_h2d_op(1024, MemModel::kHostDevice)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[0].copy_busy, cost.copy);
  EXPECT_TRUE(stats.ranks[0].phase_compute.empty());
}

TEST(Engine, TimeScaleStretchesEveryTimedOp) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  Op compute = cpu_op(1, 1, 0, 0);
  compute.time_scale = 2.0;
  Op kernel = gpu_op(1, 0, MemModel::kHostDevice);
  kernel.time_scale = 1.5;
  Op copy = copy_h2d_op(1024, MemModel::kHostDevice);
  copy.time_scale = 3.0;
  Op stall = delay_op(0.004);
  stall.time_scale = 0.5;
  std::vector<Program> programs(1);
  programs[0] = {compute, kernel, copy, stall};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[0].cpu_busy, 2 * cost.cpu_time + 2 * kMillisecond);
  EXPECT_EQ(stats.ranks[0].gpu_busy, 3 * cost.gpu_time / 2);
  EXPECT_EQ(stats.ranks[0].copy_busy, 3 * cost.copy);
  EXPECT_EQ(stats.makespan, 2 * cost.cpu_time + 3 * cost.gpu_time / 2 +
                                3 * cost.copy + 2 * kMillisecond);
}

TEST(Engine, FlopAndTrafficAggregation) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {cpu_op(100, 50, 64, 0), gpu_op(200, 128, MemModel::kHostDevice)};
  const RunStats stats = engine.run(programs);
  EXPECT_DOUBLE_EQ(stats.total_flops, 250.0);
  EXPECT_DOUBLE_EQ(stats.total_gpu_flops, 200.0);
  EXPECT_EQ(stats.total_dram_bytes, 192);
  EXPECT_EQ(stats.total_gpu_dram_bytes, 128);
  EXPECT_DOUBLE_EQ(stats.ranks[0].instructions, 100.0);
}

TEST(Engine, InstructionsByProfileTracked) {
  FixedCostModel cost;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {cpu_op(100, 0, 0, 0), cpu_op(50, 0, 0, 1),
                 cpu_op(25, 0, 0, 0)};
  const RunStats stats = engine.run(programs);
  EXPECT_DOUBLE_EQ(stats.ranks[0].instructions_by_profile.at(0), 125.0);
  EXPECT_DOUBLE_EQ(stats.ranks[0].instructions_by_profile.at(1), 50.0);
}

TEST(Engine, TimelineBinsAccumulateBusySeconds) {
  FixedCostModel cost;
  cost.cpu_time = 250 * kMillisecond;
  Engine engine(Placement::block(1, 1), cost);
  std::vector<Program> programs(1);
  programs[0] = {cpu_op(1, 1, 0, 0)};
  const RunStats stats = engine.run(programs);
  const auto& cpu = stats.nodes[0].cpu_busy;
  ASSERT_GE(cpu.size(), 3u);
  EXPECT_NEAR(cpu[0], 0.1, 1e-9);
  EXPECT_NEAR(cpu[1], 0.1, 1e-9);
  EXPECT_NEAR(cpu[2], 0.05, 1e-9);
  double total = 0.0;
  for (double v : cpu) total += v;
  EXPECT_NEAR(total, 0.25, 1e-9);
}

TEST(Engine, DeterministicAcrossRuns) {
  FixedCostModel cost;
  // Ring of eager-sized messages (a rendezvous ring would deadlock).
  std::vector<Program> programs(4);
  for (int r = 0; r < 4; ++r) {
    programs[r].push_back(cpu_op(1, 1, 0, 0));
    programs[r].push_back(send_op((r + 1) % 4, 1 * kKiB, r));
  }
  for (int r = 0; r < 4; ++r) {
    programs[(r + 1) % 4].push_back(recv_op(r, 1 * kKiB, r));
  }
  Engine a(Placement::block(4, 2), cost);
  Engine b(Placement::block(4, 2), cost);
  const RunStats sa = a.run(programs);
  const RunStats sb = b.run(programs);
  EXPECT_EQ(sa.makespan, sb.makespan);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(sa.ranks[r].finish_time, sb.ranks[r].finish_time);
    EXPECT_EQ(sa.ranks[r].recv_blocked, sb.ranks[r].recv_blocked);
  }
}

TEST(Engine, ProgramCountMismatchThrows) {
  FixedCostModel cost;
  Engine engine(Placement::block(2, 2), cost);
  std::vector<Program> programs(1);
  EXPECT_THROW(engine.run(programs), Error);
}

TEST(Engine, MultipleMessagesSameTagFifoOrder) {
  FixedCostModel cost;
  EngineConfig config;
  config.eager_threshold = 1 * kMiB;
  Engine engine(Placement::block(2, 2), cost, config);
  std::vector<Program> programs(2);
  programs[0] = {send_op(1, 100, 5), send_op(1, 100, 5)};
  programs[1] = {recv_op(0, 100, 5), recv_op(0, 100, 5)};
  const RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[1].messages_received, 2);
}

}  // namespace
}  // namespace soc::sim
