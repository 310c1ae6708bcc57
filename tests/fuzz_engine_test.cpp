// Property / fuzz tests for the replay engine: random (but well-formed)
// communication programs must execute to completion with conserved
// traffic, deterministic results, and sane monotonicities, and the
// profiler and what-if evaluator must match their messages exactly as the
// engine did.  Also tests the parallel_for utility the sweep benches use.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fuzz_programs.h"
#include "prof/profile.h"
#include "prof/profiler.h"
#include "sim/engine.h"
#include "trace/replay.h"

namespace soc {
namespace {

using test::FuzzCost;
using test::mixed_programs;

// Generates a random well-formed SPMD program: iterations of compute and
// pairwise exchanges, with matched tags by construction.  Messages use
// ordered pair emission (lower rank sends first), so rendezvous is safe.
std::vector<sim::Program> random_programs(std::uint64_t seed, int ranks) {
  Rng rng(seed);
  std::vector<sim::Program> programs(static_cast<std::size_t>(ranks));
  int tag = 0;
  const int iterations = 3 + static_cast<int>(rng.next_below(6));
  for (int it = 0; it < iterations; ++it) {
    for (int r = 0; r < ranks; ++r) {
      programs[static_cast<std::size_t>(r)].push_back(sim::phase_op(it));
      programs[static_cast<std::size_t>(r)].push_back(sim::cpu_op(
          1e3 + static_cast<double>(rng.next_below(100'000)), 10, 64, 0));
      if (rng.next_bool(0.3)) {
        programs[static_cast<std::size_t>(r)].push_back(
            sim::gpu_op(1e3 + static_cast<double>(rng.next_below(50'000)),
                        256, sim::MemModel::kHostDevice));
      }
    }
    // A few random matched exchanges between distinct pairs.
    const int exchanges = static_cast<int>(rng.next_below(4));
    for (int e = 0; e < exchanges; ++e) {
      int a = static_cast<int>(rng.next_below(static_cast<unsigned>(ranks)));
      int b = static_cast<int>(rng.next_below(static_cast<unsigned>(ranks)));
      if (a == b) continue;
      const int lo = std::min(a, b);
      const int hi = std::max(a, b);
      const Bytes bytes = 64 + static_cast<Bytes>(rng.next_below(256 * kKiB));
      const int t = tag++;
      programs[static_cast<std::size_t>(lo)].push_back(
          sim::send_op(hi, bytes, t));
      programs[static_cast<std::size_t>(hi)].push_back(
          sim::recv_op(lo, bytes, t));
    }
  }
  return programs;
}

class FuzzSeeds : public ::testing::TestWithParam<int> {};

// The engine, the profiler's matching pass and the what-if evaluator all
// match messages; prof::analyze asserts that re-timing the unmodified
// trace reproduces the recorded makespan, so any disagreement among the
// three throws.  The single-pass ideal network and ideal balance must
// equal the Eq. 4 trace replays.  Two or four ranks per node mix intra-
// and cross-node pairs.
TEST_P(FuzzSeeds, MixedProgramsProfileAndReplayExactly) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int ranks = 8;
  const int nodes = seed % 2 == 0 ? 4 : 2;
  const auto programs = mixed_programs(seed * 7919 + 5, ranks);
  FuzzCost cost(1e9);
  const auto placement = sim::Placement::block(ranks, nodes);

  prof::Profiler profiler;
  sim::Engine engine(placement, cost);
  engine.set_observer(&profiler);
  const sim::RunStats stats = engine.run(programs);
  const prof::Profile profile = prof::analyze(profiler.trace());
  EXPECT_TRUE(profile.evaluator_exact);
  EXPECT_EQ(profile.measured_eval, stats.makespan);

  sim::ProgramSource source(programs);
  const trace::ScenarioRuns runs =
      trace::replay_scenarios(placement, cost, source);
  EXPECT_EQ(runs.measured.makespan, stats.makespan);
  EXPECT_EQ(profile.ideal_network, runs.ideal_network.makespan);
  EXPECT_EQ(profile.ideal_balance, runs.ideal_balance.makespan);
}

TEST_P(FuzzSeeds, RandomProgramsCompleteWithConservedTraffic) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int ranks = 4 + static_cast<int>(seed % 5) * 2;  // 4..12
  const auto programs = random_programs(seed * 977 + 13, ranks);
  FuzzCost cost(1e9);
  sim::Engine engine(sim::Placement::block(ranks, ranks), cost);
  const sim::RunStats stats = engine.run(programs);

  // Conservation: bytes sent == bytes received, message counts match.
  Bytes sent = 0;
  Bytes received = 0;
  int msgs_out = 0;
  int msgs_in = 0;
  for (const sim::RankStats& rs : stats.ranks) {
    sent += rs.net_bytes_sent + rs.intra_bytes_sent;
    received += rs.net_bytes_received;
    msgs_out += rs.messages_sent;
    msgs_in += rs.messages_received;
  }
  EXPECT_EQ(msgs_out, msgs_in);
  EXPECT_GE(sent, received);  // intra-node bytes aren't "received" counters
  EXPECT_EQ(stats.total_net_bytes, received);

  // Makespan at least as long as any rank's busy time.
  for (const sim::RankStats& rs : stats.ranks) {
    EXPECT_LE(rs.cpu_busy + rs.gpu_busy, stats.makespan + 1);
    EXPECT_LE(rs.finish_time, stats.makespan);
  }
}

TEST_P(FuzzSeeds, Deterministic) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int ranks = 6;
  const auto programs = random_programs(seed * 31 + 7, ranks);
  FuzzCost cost(1e9);
  sim::Engine a(sim::Placement::block(ranks, 3), cost);
  sim::Engine b(sim::Placement::block(ranks, 3), cost);
  const sim::RunStats sa = a.run(programs);
  const sim::RunStats sb = b.run(programs);
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.total_net_bytes, sb.total_net_bytes);
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(sa.ranks[r].recv_blocked, sb.ranks[r].recv_blocked);
  }
}

TEST_P(FuzzSeeds, FasterNetworkNeverHurts) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int ranks = 8;
  const auto programs = random_programs(seed * 131 + 3, ranks);
  FuzzCost slow(0.1e9);
  FuzzCost fast(1e9);
  sim::Engine es(sim::Placement::block(ranks, ranks), slow);
  sim::Engine ef(sim::Placement::block(ranks, ranks), fast);
  EXPECT_GE(es.run(programs).makespan, ef.run(programs).makespan);
}

TEST_P(FuzzSeeds, IdealNetworkIsLowerBound) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int ranks = 8;
  const auto programs = random_programs(seed * 57 + 11, ranks);
  FuzzCost cost(0.5e9);
  const auto placement = sim::Placement::block(ranks, ranks);
  sim::Engine real(placement, cost);
  sim::ProgramSource source(programs);
  EXPECT_GE(real.run(programs).makespan,
            trace::replay_ideal_network(placement, cost, source).makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 12));

// --- parallel_for ---

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(64,
                   [](std::size_t i) {
                     if (i == 13) throw Error("boom");
                   },
                   4),
      Error);
}

TEST(ParallelFor, ParallelSimulationsMatchSerial) {
  // Independent engine runs from worker threads produce identical
  // results to serial execution (no hidden shared state).
  const auto programs = random_programs(42, 8);
  FuzzCost cost(1e9);
  sim::Engine serial_engine(sim::Placement::block(8, 8), cost);
  const SimTime expected = serial_engine.run(programs).makespan;

  std::vector<SimTime> results(16);
  parallel_for(results.size(), [&](std::size_t i) {
    FuzzCost local(1e9);
    sim::Engine engine(sim::Placement::block(8, 8), local);
    results[i] = engine.run(programs).makespan;
  });
  for (SimTime r : results) EXPECT_EQ(r, expected);
}

}  // namespace
}  // namespace soc
