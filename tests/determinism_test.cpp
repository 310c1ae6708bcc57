// The determinism auditor's own test: the engine promise (engine.h) that a
// given (programs, cost model, scenario) triple always yields identical
// RunStats, certified via RunStats::event_checksum.
//
// Replays run back-to-back serially and fanned out under soc::parallel_for
// (the bench sweeps' execution mode), and the checksums must be
// bit-identical in every case.  Also covers the parallel_for rules the
// sweeps and analyses rely on: count = 0, threads > count, the lowest
// failing index's exception rethrown after the join, nested calls run
// inline, the caller runs task 0, and 0 threads follows the affinity
// mask.  The digest itself (Fnv1a) must equal a plain byte loop.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "net/network.h"
#include "obs/observers.h"
#include "sim/engine.h"
#include "systems/machines.h"
#include "trace/replay.h"
#include "workloads/workload.h"

namespace soc {
namespace {

// Representative slice of the registry: GPU stencil, GPU dense linear
// algebra, a DNN, and two NPB communication patterns (all-to-all FT,
// sparse CG).
const char* const kAuditWorkloads[] = {"jacobi", "hpl", "alexnet", "ft", "cg"};

/// A quick (5% size) run of `w` on `nodes` TX1 nodes.
cluster::RunRequest quick(const workloads::Workload& w, int nodes) {
  cluster::RunRequest request;
  request.workload_ref = &w;
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                    w.gpu_accelerated() ? nodes : 2 * nodes};
  request.options.size_scale = 0.05;
  return request;
}

TEST(Determinism, ChecksumIsPopulated) {
  const auto w = workloads::make_workload("jacobi");
  const auto r = cluster::run(quick(*w, 4));
  EXPECT_NE(r.stats.event_checksum, 0u);
  EXPECT_NE(r.stats.event_checksum, Fnv1a::kOffsetBasis);
  EXPECT_GT(r.stats.events_committed, 0u);
}

TEST(Determinism, SerialReplaysAreBitIdentical) {
  for (const char* name : kAuditWorkloads) {
    const auto w = workloads::make_workload(name);
    const auto a = cluster::run(quick(*w, 4));
    const auto b = cluster::run(quick(*w, 4));
    EXPECT_EQ(a.stats.event_checksum, b.stats.event_checksum) << name;
    EXPECT_EQ(a.stats.events_committed, b.stats.events_committed) << name;
    EXPECT_EQ(a.stats.makespan, b.stats.makespan) << name;
    EXPECT_EQ(a.stats.total_net_bytes, b.stats.total_net_bytes) << name;
  }
}

TEST(Determinism, ParallelForReplaysMatchSerial) {
  for (const char* name : kAuditWorkloads) {
    const auto w = workloads::make_workload(name);
    const auto serial = cluster::run(quick(*w, 4));

    constexpr std::size_t kReplicas = 8;
    std::vector<std::uint64_t> checksums(kReplicas, 0);
    std::vector<SimTime> makespans(kReplicas, 0);
    parallel_for(kReplicas, [&](std::size_t i) {
      const auto w2 = workloads::make_workload(name);
      const auto r = cluster::run(quick(*w2, 4));
      checksums[i] = r.stats.event_checksum;
      makespans[i] = r.stats.makespan;
    });
    for (std::size_t i = 0; i < kReplicas; ++i) {
      EXPECT_EQ(checksums[i], serial.stats.event_checksum)
          << name << " replica " << i;
      EXPECT_EQ(makespans[i], serial.stats.makespan)
          << name << " replica " << i;
    }
  }
}

// The metrics registry derives everything from the committed event stream,
// so it must inherit the engine's replay promise: registries from serial
// and parallel_for replays of one configuration compare equal, member by
// member, and render byte-identical JSON.
TEST(Determinism, MetricsRegistryIdenticalAcrossReplays) {
  auto run_with_metrics = [](const workloads::Workload& w) {
    obs::MetricsObserver observer;
    auto request = quick(w, 4);
    request.options.observer = &observer;
    cluster::run(request);
    return observer.registry();
  };

  const auto w = workloads::make_workload("jacobi");
  const obs::MetricsRegistry serial_a = run_with_metrics(*w);
  const obs::MetricsRegistry serial_b = run_with_metrics(*w);
  EXPECT_FALSE(serial_a.empty());
  EXPECT_GT(serial_a.counter("msg.eager") + serial_a.counter("msg.rendezvous"),
            0);
  EXPECT_TRUE(serial_a == serial_b);
  EXPECT_EQ(serial_a.json(), serial_b.json());

  constexpr std::size_t kReplicas = 4;
  std::vector<obs::MetricsRegistry> replicas(kReplicas);
  parallel_for(kReplicas, [&](std::size_t i) {
    const auto w2 = workloads::make_workload("jacobi");
    replicas[i] = run_with_metrics(*w2);
  });
  for (std::size_t i = 0; i < kReplicas; ++i) {
    EXPECT_TRUE(replicas[i] == serial_a) << "replica " << i;
  }
}

TEST(Determinism, ChecksumDistinguishesWorkloadsAndScenarios) {
  // Not a cryptographic claim — just that the digest actually depends on
  // the schedule: distinct workloads and scenario knobs produce distinct
  // streams on this fixed configuration.
  std::set<std::uint64_t> seen;
  for (const char* name : kAuditWorkloads) {
    const auto w = workloads::make_workload(name);
    seen.insert(cluster::run(quick(*w, 4)).stats.event_checksum);
  }
  EXPECT_EQ(seen.size(), std::size(kAuditWorkloads));

  const auto w = workloads::make_workload("jacobi");
  auto scaled = quick(*w, 4);
  scaled.options.size_scale = 0.1;
  EXPECT_NE(cluster::run(quick(*w, 4)).stats.event_checksum,
            cluster::run(scaled).stats.event_checksum);
}

TEST(Determinism, ChecksumStableAcrossThreadCounts) {
  // The digest must not depend on how the host fans replicas out.
  const auto w = workloads::make_workload("ft");
  const auto serial = cluster::run(quick(*w, 2));
  for (unsigned threads : {1u, 2u, 5u}) {
    std::vector<std::uint64_t> checksums(4, 0);
    parallel_for(
        checksums.size(),
        [&](std::size_t i) {
          const auto w2 = workloads::make_workload("ft");
          checksums[i] =
              cluster::run(quick(*w2, 2)).stats.event_checksum;
        },
        threads);
    for (std::uint64_t c : checksums) {
      EXPECT_EQ(c, serial.stats.event_checksum) << threads << " threads";
    }
  }
}

// Every run folds the digest from its own dispatch buffer; an attached
// observer only adds a second buffer of observer records.  So attaching a
// do-nothing observer must leave the digest alone, for every workload and
// also under the ideal network: its zero-latency messages let an event
// wake a rank at the same time with a smaller key than events already
// committed there, so records arrive out of (time, key) order and the
// commit sort has to move them.
TEST(Determinism, AttachedObserverLeavesDigestUnchanged) {
  sim::EngineObserver nothing;  // every callback is a no-op
  for (const std::string& name : workloads::list()) {
    const auto w = workloads::make_workload(name);
    const cluster::RunRequest request = quick(*w, 2);
    const cluster::ClusterConfig& config = request.config;
    workloads::BuildContext ctx;
    ctx.nodes = config.nodes;
    ctx.ranks = config.ranks;
    ctx.size_scale = request.options.size_scale;
    const std::vector<sim::Program> programs = w->build(ctx);
    const sim::Placement placement =
        sim::Placement::block(config.ranks, config.nodes);
    const sim::EngineConfig engine_config =
        cluster::engine_config(config, request.options);
    const cluster::ClusterCostModel cost(config.node, config.nodes,
                                         config.ranks, w->cpu_profile());
    const trace::IdealNetworkCost free_messages(cost);
    sim::EngineConfig unlimited_switch = engine_config;
    unlimited_switch.bisection_bandwidth = 0.0;

    struct Case {
      const char* label;
      const sim::CostModel& cost;
      const sim::EngineConfig& config;
    };
    for (const Case& c : {Case{"measured", cost, engine_config},
                          Case{"ideal network", free_messages,
                               unlimited_switch}}) {
      sim::Engine detached(placement, c.cost, c.config);
      const sim::RunStats a = detached.run(programs);
      sim::Engine attached(placement, c.cost, c.config);
      attached.set_observer(&nothing);
      const sim::RunStats b = attached.run(programs);
      EXPECT_EQ(a.event_checksum, b.event_checksum) << name << " " << c.label;
      EXPECT_EQ(a.events_committed, b.events_committed)
          << name << " " << c.label;
    }

    // The ideal-network case above is the library's ideal-network replay.
    sim::ProgramSource source(programs);
    sim::Engine detached(placement, free_messages, unlimited_switch);
    EXPECT_EQ(detached.run(programs).event_checksum,
              trace::replay_ideal_network(placement, cost, source,
                                          engine_config)
                  .event_checksum)
        << name;
  }
}

// ---------------------------------------------------------------------------
// soc::parallel_for edge cases (the sweeps' fan-out primitive).
// ---------------------------------------------------------------------------

TEST(ParallelFor, CountZeroNeverInvokesBody) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, MoreThreadsThanTasksCoversEveryIndexOnce) {
  constexpr std::size_t kCount = 3;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { ++hits[i]; }, /*threads=*/16);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ThrowingTaskRethrownAfterJoin) {
  std::atomic<int> completed{0};
  try {
    parallel_for(
        16,
        [&](std::size_t i) {
          if (i == 5) throw Error("task 5 failed");
          ++completed;
        },
        /*threads=*/4);
    FAIL() << "expected soc::Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "task 5 failed");
  }
  // Every non-throwing task still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ParallelFor, NullBodyRejected) {
  EXPECT_THROW(parallel_for(4, std::function<void(std::size_t)>{}), Error);
}

// Two failing tasks: the error is always the lower index's, whatever the
// thread count and whichever task threw first in time (task 3 sleeps so
// task 11 usually does), and every other task still runs.
TEST(ParallelFor, LowestFailingIndexIsRethrown) {
  constexpr std::size_t kCount = 16;
  for (const unsigned threads : {1u, 2u, 4u, 16u}) {
    for (int run = 0; run < 50; ++run) {
      std::vector<std::atomic<int>> ran(kCount);
      std::string message;
      try {
        parallel_for(
            kCount,
            [&](std::size_t i) {
              ++ran[i];
              if (i == 3) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                throw Error("task 3 failed");
              }
              if (i == 11) throw Error("task 11 failed");
            },
            threads);
      } catch (const Error& e) {
        message = e.what();
      }
      ASSERT_EQ(message, "task 3 failed") << threads << " threads, run " << run;
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(ran[i].load(), 1) << "task " << i << ", " << threads
                                    << " threads, run " << run;
      }
    }
  }
}

// A parallel_for inside a task runs inline: all its tasks on that task's
// thread, in index order, however many threads it asks for.
TEST(ParallelFor, NestedCallsRunInlineInIndexOrder) {
  constexpr std::size_t kOuter = 8;
  std::vector<std::vector<std::size_t>> order(kOuter);
  std::vector<int> on_task_thread(kOuter, 0);
  parallel_for(
      kOuter,
      [&](std::size_t o) {
        const std::thread::id task_thread = std::this_thread::get_id();
        bool same = true;
        parallel_for(5, [&](std::size_t i) {
          order[o].push_back(i);
          same = same && std::this_thread::get_id() == task_thread;
        });
        on_task_thread[o] = same ? 1 : 0;
      },
      /*threads=*/4);
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(order[o], (std::vector<std::size_t>{0, 1, 2, 3, 4}))
        << "outer task " << o;
    EXPECT_EQ(on_task_thread[o], 1) << "outer task " << o;
  }
}

/// True when a top-level two-task call runs task 1 on another thread
/// while task 0 holds the caller (task 0 waits about 10 s at most).
bool top_level_fans_out() {
  std::atomic<bool> second_started{false};
  std::thread::id second_thread;
  parallel_for(
      2,
      [&](std::size_t i) {
        if (i == 1) {
          second_thread = std::this_thread::get_id();
          second_started = true;
          return;
        }
        for (int wait = 0; wait < 10'000 && !second_started; ++wait) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      /*threads=*/2);
  return second_thread != std::this_thread::get_id();
}

TEST(ParallelFor, TopLevelCallsFanOutAgainAfterNestedOnes) {
  EXPECT_TRUE(top_level_fans_out());
  parallel_for(3, [](std::size_t) { parallel_for(2, [](std::size_t) {}); });
  EXPECT_TRUE(top_level_fans_out());

  // An inner task throws, on the caller's thread and on helpers, through
  // a fanned-out outer call and through one that ran inline.
  const auto nested_throw = [](std::size_t) {
    parallel_for(3, [](std::size_t i) {
      if (i == 1) throw Error("inner task failed");
    });
  };
  EXPECT_THROW(parallel_for(4, nested_throw, /*threads=*/2), Error);
  EXPECT_TRUE(top_level_fans_out());
  EXPECT_THROW(parallel_for(1, nested_throw), Error);
  EXPECT_TRUE(top_level_fans_out());
}

TEST(ParallelFor, CallerRunsTaskZero) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const unsigned threads : {0u, 1u, 2u, 4u, 16u}) {
    std::thread::id first;
    parallel_for(
        16,
        [&](std::size_t i) {
          if (i == 0) first = std::this_thread::get_id();
        },
        threads);
    EXPECT_EQ(first, caller) << threads << " threads";
  }
}

// Zero threads means every CPU this process may use: pinned to one CPU,
// a call runs inline instead of time-slicing threads on it.
TEST(ParallelFor, ZeroThreadsFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const unsigned pinned = effective_threads(0, 8);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(effective_threads(0, 8),
            std::min(static_cast<unsigned>(CPU_COUNT(&saved)), 8u));
}

TEST(Fnv1a, OrderSensitiveAndStable) {
  Fnv1a ab;
  ab.mix_u64(1).mix_u64(2);
  Fnv1a ba;
  ba.mix_u64(2).mix_u64(1);
  EXPECT_NE(ab.value(), ba.value());

  // Golden value: FNV-1a of eight zero bytes must never drift, or recorded
  // checksums from earlier runs become incomparable.
  Fnv1a zero;
  zero.mix_u64(0);
  EXPECT_EQ(zero.value(), 0xA8C7F832281A39C5ull);
  Fnv1a empty;
  EXPECT_EQ(empty.value(), Fnv1a::kOffsetBasis);
}

// FNV-1a of v's 8 little-endian bytes, one byte at a time: what mix_u64
// must equal, however it skips the high zero bytes.
std::uint64_t mix_bytes(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ static_cast<std::uint8_t>(v >> (8 * i))) * Fnv1a::kPrime;
  }
  return h;
}

TEST(Fnv1a, MixU64EqualsTheByteLoop) {
  // Every width boundary: the widest value of k bytes and the narrowest
  // of k + 1.
  std::vector<std::uint64_t> values = {0, ~std::uint64_t{0}};
  for (int k = 1; k <= 7; ++k) {
    const std::uint64_t first = std::uint64_t{1} << (8 * k);
    values.push_back(first - 1);
    values.push_back(first);
  }
  // Seeded values of every width, from 1 to 64 bits.
  Rng rng(28);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(rng.next_u64() >> rng.next_below(64));
  }
  for (const std::uint64_t v : values) {
    Fnv1a digest;
    digest.mix_u64(v);
    ASSERT_EQ(digest.value(), mix_bytes(Fnv1a::kOffsetBasis, v)) << v;
  }

  // Chained (time, rank, kind, bytes) records, as the engine folds each
  // committed event, starting from every intermediate state.
  Fnv1a digest;
  std::uint64_t want = Fnv1a::kOffsetBasis;
  for (int i = 0; i < 10000; ++i) {
    const auto time = static_cast<std::int64_t>(rng.next_u64() >> 4);
    const auto rank = static_cast<std::uint32_t>(rng.next_below(256));
    const auto kind = static_cast<std::uint8_t>(rng.next_below(256));
    const auto bytes = static_cast<std::int64_t>(rng.next_below(1u << 24));
    digest.mix_i64(time).mix_u64(rank).mix_byte(kind).mix_i64(bytes);
    want = mix_bytes(want, static_cast<std::uint64_t>(time));
    want = mix_bytes(want, rank);
    want = (want ^ kind) * Fnv1a::kPrime;
    want = mix_bytes(want, static_cast<std::uint64_t>(bytes));
    ASSERT_EQ(digest.value(), want) << "record " << i;
  }
  static_assert(Fnv1a{}.mix_u64(0).value() == 0xA8C7F832281A39C5ull,
                "mix_u64 stays constexpr");
}

}  // namespace
}  // namespace soc
