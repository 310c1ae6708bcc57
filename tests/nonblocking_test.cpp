// Tests for the non-blocking messaging extension (Isend/Irecv/WaitAll)
// and the TLB simulator.
#include <gtest/gtest.h>

#include "arch/tlb.h"
#include "common/rng.h"
#include "common/error.h"
#include "msg/program_set.h"
#include "sim/engine.h"

namespace soc {
namespace {

class OverlapCost : public sim::CostModel {
 public:
  SimTime compute = 100 * kMillisecond;
  SimTime cpu_compute_time(int, const sim::Op&) const override {
    return compute;
  }
  SimTime gpu_kernel_time(int, const sim::Op&) const override {
    return compute;
  }
  SimTime copy_time(int, const sim::Op&) const override { return 0; }
  SimTime message_latency(int s, int d) const override {
    return s == d ? 0 : 1 * kMillisecond;
  }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return transfer_time(bytes, 1e9);  // 1 GB/s
  }
  SimTime send_overhead(int) const override { return 0; }
  SimTime recv_overhead(int) const override { return 0; }
};

TEST(NonBlocking, TransferOverlapsCompute) {
  // 50 MB transfer (50 ms) hides fully under 100 ms of compute.
  OverlapCost cost;
  std::vector<sim::Program> programs(2);
  programs[0] = {sim::isend_op(1, 50 * kMB, 0),
                 sim::cpu_op(1, 1, 0, 0), sim::wait_all_op()};
  programs[1] = {sim::irecv_op(0, 50 * kMB, 0),
                 sim::cpu_op(1, 1, 0, 0), sim::wait_all_op()};
  sim::Engine engine(sim::Placement::block(2, 2), cost);
  const sim::RunStats stats = engine.run(programs);
  // Completion == compute time (+epsilon), not compute + transfer.
  EXPECT_LT(stats.makespan, cost.compute + 5 * kMillisecond);
  EXPECT_GE(stats.makespan, cost.compute);
}

TEST(NonBlocking, WaitBlocksWhenTransferIsLonger) {
  // 500 MB (500 ms) does NOT hide under 100 ms compute.
  OverlapCost cost;
  std::vector<sim::Program> programs(2);
  programs[0] = {sim::isend_op(1, 500 * kMB, 0),
                 sim::cpu_op(1, 1, 0, 0), sim::wait_all_op()};
  programs[1] = {sim::irecv_op(0, 500 * kMB, 0),
                 sim::cpu_op(1, 1, 0, 0), sim::wait_all_op()};
  sim::Engine engine(sim::Placement::block(2, 2), cost);
  const sim::RunStats stats = engine.run(programs);
  EXPECT_GT(stats.makespan, 500 * kMillisecond);
  // The receiver's wait shows up as blocked time.
  EXPECT_GT(stats.ranks[1].recv_blocked, 300 * kMillisecond);
}

TEST(NonBlocking, IrecvBeforeIsendResolves) {
  OverlapCost cost;
  std::vector<sim::Program> programs(2);
  // Receiver posts first, then computes; sender computes first.
  programs[0] = {sim::cpu_op(1, 1, 0, 0), sim::isend_op(1, 1 * kMB, 0),
                 sim::wait_all_op()};
  programs[1] = {sim::irecv_op(0, 1 * kMB, 0), sim::cpu_op(1, 1, 0, 0),
                 sim::wait_all_op()};
  sim::Engine engine(sim::Placement::block(2, 2), cost);
  const sim::RunStats stats = engine.run(programs);
  EXPECT_GT(stats.makespan, 0);
  EXPECT_EQ(stats.ranks[0].net_bytes_sent, 1 * kMB);
}

TEST(NonBlocking, IrecvMatchesBlockingSend) {
  OverlapCost cost;
  sim::EngineConfig config;
  config.eager_threshold = 0;  // sender uses rendezvous
  std::vector<sim::Program> programs(2);
  programs[0] = {sim::send_op(1, 10 * kMB, 0)};
  programs[1] = {sim::irecv_op(0, 10 * kMB, 0), sim::cpu_op(1, 1, 0, 0),
                 sim::wait_all_op()};
  sim::Engine engine(sim::Placement::block(2, 2), cost, config);
  const sim::RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[1].net_bytes_received, 10 * kMB);
}

TEST(NonBlocking, BlockingRecvMatchesIsend) {
  OverlapCost cost;
  std::vector<sim::Program> programs(2);
  programs[0] = {sim::isend_op(1, 1 * kMB, 0), sim::wait_all_op()};
  programs[1] = {sim::recv_op(0, 1 * kMB, 0)};
  sim::Engine engine(sim::Placement::block(2, 2), cost);
  const sim::RunStats stats = engine.run(programs);
  EXPECT_EQ(stats.ranks[1].messages_received, 1);
}

TEST(NonBlocking, UnmatchedIrecvDeadlocks) {
  OverlapCost cost;
  std::vector<sim::Program> programs(2);
  programs[0] = {};  // never sends
  programs[1] = {sim::irecv_op(0, 1 * kMB, 0), sim::wait_all_op()};
  sim::Engine engine(sim::Placement::block(2, 2), cost);
  EXPECT_THROW(engine.run(programs), Error);
}

TEST(NonBlocking, WaitAllWithNoRequestsIsFree) {
  OverlapCost cost;
  std::vector<sim::Program> programs(1);
  programs[0] = {sim::wait_all_op(), sim::cpu_op(1, 1, 0, 0)};
  sim::Engine engine(sim::Placement::block(1, 1), cost);
  EXPECT_EQ(engine.run(programs).makespan, cost.compute);
}

TEST(NonBlocking, ExchangeAsyncIsSymmetricAndDeadlockFree) {
  OverlapCost cost;
  msg::ProgramSet ps(4);
  for (int parity = 0; parity < 2; ++parity) {
    for (int r = parity; r + 1 < 4; r += 2) {
      ps.exchange_async(r, r + 1, 4 * kMB);
    }
  }
  for (int r = 0; r < 4; ++r) ps.wait_all(r);
  sim::Engine engine(sim::Placement::block(4, 4), cost);
  const sim::RunStats stats = engine.run(ps.programs());
  EXPECT_EQ(stats.ranks[1].messages_sent, 2);
  EXPECT_EQ(stats.ranks[1].messages_received, 2);
}

TEST(NonBlocking, FullDuplexNicOverlapsSendAndReceive) {
  // Rank 0 sends to 1 while 1 sends to 0: full duplex finishes in one
  // transfer time, not two.
  OverlapCost cost;
  std::vector<sim::Program> programs(2);
  programs[0] = {sim::isend_op(1, 100 * kMB, 0),
                 sim::irecv_op(1, 100 * kMB, 1), sim::wait_all_op()};
  programs[1] = {sim::isend_op(0, 100 * kMB, 1),
                 sim::irecv_op(0, 100 * kMB, 0), sim::wait_all_op()};
  sim::Engine engine(sim::Placement::block(2, 2), cost);
  const sim::RunStats stats = engine.run(programs);
  // One 100 MB transfer takes 100 ms + 1 ms latency.
  EXPECT_LT(stats.makespan, 120 * kMillisecond);
}

// --- TLB ---

TEST(Tlb, HitsWithinReach) {
  arch::Tlb tlb(arch::TlbConfig{16, 16, 4 * kKiB});
  // Touch 8 pages twice: second pass all hits.
  for (int pass = 0; pass < 2; ++pass) {
    for (int p = 0; p < 8; ++p) {
      tlb.access(static_cast<std::uint64_t>(p) * 4 * kKiB);
    }
  }
  EXPECT_EQ(tlb.stats().misses, 8u);
  EXPECT_EQ(tlb.stats().accesses, 16u);
}

TEST(Tlb, ThrashesBeyondReach) {
  arch::Tlb tlb(arch::TlbConfig{16, 16, 4 * kKiB});
  for (int pass = 0; pass < 3; ++pass) {
    for (int p = 0; p < 64; ++p) {  // 4x the TLB's capacity, LRU thrash
      tlb.access(static_cast<std::uint64_t>(p) * 4 * kKiB);
    }
  }
  EXPECT_GT(tlb.stats().miss_ratio(), 0.9);
}

TEST(Tlb, SamePageNeedsOneEntry) {
  arch::Tlb tlb(arch::TlbConfig{16, 16, 4 * kKiB});
  tlb.access(100);
  EXPECT_TRUE(tlb.access(4000));   // same 4 KiB page
  EXPECT_FALSE(tlb.access(5000));  // next page
}

TEST(Tlb, RejectsBadConfig) {
  EXPECT_THROW(arch::Tlb(arch::TlbConfig{0, 1, 4 * kKiB}), Error);
  EXPECT_THROW(arch::Tlb(arch::TlbConfig{16, 16, 5000}), Error);
  EXPECT_THROW(arch::Tlb(arch::TlbConfig{48, 16, 4 * kKiB}), Error);
}

TEST(Tlb, LargerTlbNeverWorse) {
  arch::TlbConfig small{32, 4, 4 * kKiB};
  arch::TlbConfig big{512, 4, 4 * kKiB};
  arch::Tlb ts(small);
  arch::Tlb tb(big);
  Rng rng(77);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t a = rng.next_below(8 * kMiB);
    ts.access(a);
    tb.access(a);
  }
  EXPECT_GE(ts.stats().miss_ratio(), tb.stats().miss_ratio());
}

}  // namespace
}  // namespace soc
