// Property / fuzz tests for the replay engine: random (but well-formed)
// communication programs must execute to completion with conserved
// traffic, deterministic results, and sane monotonicities; the profiler
// must match their messages exactly as the engine did; and the engine,
// its Eq. 4 replays included, must agree with the naive reference engine
// (reference_engine.h) on every finish time and message.  Also tests the
// parallel_for utility the sweep benches use.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fuzz_programs.h"
#include "prof/profile.h"
#include "prof/profiler.h"
#include "reference_engine.h"
#include "sim/engine.h"
#include "sweep/grid.h"
#include "systems/machines.h"
#include "trace/replay.h"
#include "workloads/workload.h"

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

// What mixed_programs lacks: GPU kernels and copies contending for their
// node's lanes, kDelay stalls, and durations stretched by Op::time_scale
// (as the straggler decorator and the ideal-balance replay set it).
std::vector<sim::Program> with_lanes_and_stalls(
    std::vector<sim::Program> programs, std::uint64_t seed) {
  Rng rng(seed);
  for (sim::Program& program : programs) {
    sim::Program out;
    for (sim::Op op : program) {
      if (op.kind == sim::OpKind::kCpuCompute && rng.next_bool(0.5)) {
        op.time_scale = rng.next_range(0.5, 2.0);
      }
      out.push_back(op);
      if (op.kind != sim::OpKind::kCpuCompute) continue;
      if (rng.next_bool(0.3)) {
        out.push_back(sim::gpu_op(
            1e3 + static_cast<double>(rng.next_below(50'000)), 256,
            sim::MemModel::kHostDevice));
      }
      if (rng.next_bool(0.2)) {
        out.push_back(sim::copy_h2d_op(4096, sim::MemModel::kHostDevice));
        out.back().time_scale = rng.next_range(0.5, 2.0);
      }
      if (rng.next_bool(0.2)) {
        out.push_back(sim::delay_op(rng.next_range(1e-6, 1e-4)));
        out.back().time_scale = rng.next_bool(0.5) ? 1.0 : 1.5;
      }
    }
    program = std::move(out);
  }
  return programs;
}

std::vector<SimTime> finish_times(const sim::RunStats& stats) {
  std::vector<SimTime> out;
  for (const sim::RankStats& rs : stats.ranks) out.push_back(rs.finish_time);
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<int> {};

// The engine and the profiler's matching pass both match messages, and
// the profiler checks every window it reconstructs against the messages
// the engine committed; the reference engine must agree with the engine
// on every finish time and message.  The Eq. 4 replays must equal the
// reference's runs of the same two ideal scenarios.  Two or four ranks
// per node mix intra- and cross-node pairs.
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
  EXPECT_EQ(profile.attribution.path.total, stats.makespan);
  EXPECT_EQ(test::engine_vs_reference(programs, placement, cost), "");

  sim::ProgramSource source(programs);
  const trace::ScenarioRuns runs =
      trace::replay_scenarios(placement, cost, source);
  EXPECT_EQ(runs.measured.makespan, stats.makespan);
  const trace::IdealNetworkCost free_messages(cost);
  EXPECT_EQ(finish_times(runs.ideal_network),
            test::run_reference(programs, placement, free_messages).finish);
  std::vector<sim::Program> balanced = programs;
  const std::vector<double> scales = sim::ideal_balance_scales(stats);
  for (std::size_t r = 0; r < balanced.size(); ++r) {
    for (sim::Op& op : balanced[r]) op.time_scale *= scales[r];
  }
  EXPECT_EQ(finish_times(runs.ideal_balance),
            test::run_reference(balanced, placement, cost).finish);
}

// Every rule of the reference engine at once: lanes, stalls and stretched
// ops on top of mixed_programs' exchanges, on one to eight ranks per node,
// under an unlimited and a finite switch and eager thresholds of 0 (every
// message rendezvous), 8 KiB and 1 GiB (every message eager).
TEST_P(FuzzSeeds, MixedProgramsMatchReferenceUnderEveryConfig) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int ranks = 8;
  const auto programs =
      with_lanes_and_stalls(mixed_programs(seed * 104729 + 3, ranks), seed);
  FuzzCost cost(1e9);
  for (const int nodes : {1, 2, 4, 8}) {
    for (const Bytes eager : {Bytes{0}, 8 * kKiB, kGiB}) {
      for (const double bisection : {0.0, 2e9}) {
        sim::EngineConfig config;
        config.eager_threshold = eager;
        config.bisection_bandwidth = bisection;
        EXPECT_EQ(test::engine_vs_reference(
                      programs, sim::Placement::block(ranks, nodes), cost,
                      config),
                  "")
            << nodes << " nodes, eager threshold " << eager
            << ", bisection " << bisection;
      }
    }
  }
}

// random_programs' blocking exchanges, with GPU contention whenever ranks
// share a node.
TEST_P(FuzzSeeds, RandomProgramsMatchReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int ranks = 8;
  const auto programs = random_programs(seed * 389 + 17, ranks);
  FuzzCost cost(1e9);
  for (const int nodes : {1, 2, 8}) {
    EXPECT_EQ(test::engine_vs_reference(
                  programs, sim::Placement::block(ranks, nodes), cost),
              "")
        << nodes << " nodes";
  }
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

// Every workload's generated programs under the cluster's own cost model
// and switch, with halos overlapped where a workload supports it
// (isend/irecv/waitall windows).
TEST(ReferenceEngine, EveryWorkloadOnFourNodes) {
  for (const std::string& name : workloads::list()) {
    const auto workload = workloads::make_workload(name);
    const int nodes = 4;
    const int ranks = sweep::natural_ranks(*workload, nodes);
    workloads::BuildContext ctx;
    ctx.nodes = nodes;
    ctx.ranks = ranks;
    ctx.size_scale = 0.05;
    ctx.overlap_halos = true;
    const cluster::ClusterConfig config{
        systems::jetson_tx1(net::NicKind::kTenGigabit), nodes, ranks};
    const cluster::ClusterCostModel cost(config.node, nodes, ranks,
                                         workload->cpu_profile());
    EXPECT_EQ(test::engine_vs_reference(
                  workload->build(ctx), sim::Placement::block(ranks, nodes),
                  cost, cluster::engine_config(config, {})),
              "")
        << name;
  }
}

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
