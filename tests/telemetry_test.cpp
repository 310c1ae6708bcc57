// Engine self-telemetry (ISSUE 10): the wall-clock shard profiler and
// the zero-residual scaling-loss attribution.
//
// Three contracts under test:
//
//  1. The deterministic counter document (obs::engine_counters_json) is
//     byte-identical at any shard count and any thread count, for every
//     registered workload and every scenario decorator family — the
//     same invariance matrix the sharded engine itself is held to.
//
//  2. Telemetry is an invisible attachment: an instrumented run commits
//     the identical event stream, and with no telemetry attached the
//     perf harness's timed numbers (allocations per event, throughput)
//     are unchanged by the feature existing at all.
//
//  3. prof::explain_scaling partitions the serial-vs-sharded
//     core-seconds gap with zero residual — the four loss terms sum to
//     the measured gap exactly, on every fig5/fig6 perf configuration.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/perf.h"
#include "net/network.h"
#include "obs/engine_telemetry.h"
#include "prof/selfprof.h"
#include "sim/telemetry.h"
#include "systems/machines.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace soc {
namespace {

constexpr int kNodes = 8;
constexpr double kScale = 0.05;

int ranks_for(const workloads::Workload& w) {
  return w.gpu_accelerated() ? kNodes : 2 * kNodes;
}

/// One telemetry-attached run; returns the metered result and fills
/// `telemetry` through the RunRequest sink.
cluster::RunResult run_with_telemetry(
    const std::string& name, int shards, int threads,
    const workloads::ScenarioConfig& scenario,
    sim::EngineTelemetry* telemetry) {
  const auto w = workloads::make_workload(name);
  const auto node = systems::jetson_tx1(net::NicKind::kTenGigabit);
  cluster::RunRequest request;
  request.workload = name;
  request.workload_ref = w.get();
  request.config = cluster::ClusterConfig{node, kNodes, ranks_for(*w)};
  request.options.size_scale = kScale;
  request.options.engine.shards = shards;
  request.options.engine.threads = threads;
  request.scenario = scenario;
  request.engine_telemetry = telemetry;
  return cluster::run(request);
}

struct NamedScenario {
  const char* name;
  workloads::ScenarioConfig config;
};

/// One representative per decorator family (mirrors shard_test.cpp).
std::vector<NamedScenario> scenario_axis() {
  std::vector<NamedScenario> axis;
  axis.push_back({"none", {}});
  axis.push_back(
      {"fault",
       workloads::parse_scenario(
           "straggler:rank=1,slowdown=2.5;node-crash:node=2,t=0.002,down=0.003;"
           "link-flap:node=5,t0=0.001,t1=0.004",
           "", "")});
  axis.push_back(
      {"noise", workloads::parse_scenario(
                    "", "interval=0.003,duration=0.0005,seed=7,jitter=0.25",
                    "")});
  axis.push_back({"checkpoint",
                  workloads::parse_scenario("", "",
                                            "daly:size=1e8,bw=5e9,mtti=30")});
  return axis;
}

// Contract 1: the counter document is fixed by the simulation's control
// flow alone.  Shards {1, 2, 4, 8} and worker threads {1, 2} must all
// render the identical bytes, for every workload x scenario family.
TEST(Telemetry, CounterDocByteIdenticalAcrossShardsAndThreads) {
  const auto scenarios = scenario_axis();
  for (const std::string& name : workloads::list()) {
    for (const NamedScenario& s : scenarios) {
      sim::EngineTelemetry serial_tel;
      const auto serial = run_with_telemetry(name, 1, 0, s.config,
                                             &serial_tel);
      ASSERT_GT(serial.stats.events_committed, 0u) << name;
      const std::string reference = obs::engine_counters_json(serial_tel);
      struct Combo {
        int shards;
        int threads;
      };
      for (const Combo c :
           {Combo{2, 0}, Combo{4, 1}, Combo{4, 2}, Combo{8, 0}}) {
        sim::EngineTelemetry tel;
        const auto sharded =
            run_with_telemetry(name, c.shards, c.threads, s.config, &tel);
        EXPECT_EQ(sharded.stats.event_checksum, serial.stats.event_checksum)
            << name << " scenario=" << s.name << " shards=" << c.shards
            << " threads=" << c.threads;
        EXPECT_EQ(obs::engine_counters_json(tel), reference)
            << name << " scenario=" << s.name << " shards=" << c.shards
            << " threads=" << c.threads;
      }
    }
  }
}

// The telemetry struct itself must be coherent: totals match RunStats,
// per-shard counters sum to the aggregate, the full artifact and the
// wall-clock trace render, and no spans were silently dropped.
TEST(Telemetry, StructureMatchesRunAndArtifactsRender) {
  sim::EngineTelemetry tel;
  // The default per-lane span cap (1 << 14) is sized for bounded trace
  // artifacts, not for holding every window of a long run; raise it so
  // this run records everything and the zero-drop check is meaningful.
  // (reset() deliberately preserves the knob across runs.)
  tel.max_spans_per_lane = std::size_t{1} << 20;
  const auto result = run_with_telemetry("jacobi", 4, 0, {}, &tel);

  EXPECT_EQ(tel.events_committed, result.stats.events_committed);
  EXPECT_EQ(tel.shards, 4);
  EXPECT_TRUE(tel.windowed);
  EXPECT_GT(tel.windows, 0u);
  EXPECT_GT(tel.lookahead, 0);
  EXPECT_GT(tel.wall_total_ns, 0u);
  EXPECT_GE(tel.step_wall_ns, tel.busy_max_ns);
  EXPECT_GE(tel.busy_sum_ns, tel.busy_max_ns);
  EXPECT_EQ(tel.spans_dropped, 0u);
  EXPECT_FALSE(tel.spans.empty());
  ASSERT_EQ(tel.shard.size(), 4u);

  std::uint64_t events = 0;
  std::uint64_t windows_stepped = 0;
  for (const sim::ShardCounters& c : tel.shard) {
    events += c.events_processed;
    windows_stepped += c.windows_stepped;
    ASSERT_EQ(c.mailbox_sent.size(), 4u);
    std::uint64_t routed = 0;
    for (const std::uint64_t n : c.mailbox_sent) routed += n;
    EXPECT_EQ(routed, c.cross_shard_sent);
    EXPECT_EQ(c.mailbox_sent[static_cast<std::size_t>(
                  &c - tel.shard.data())],
              0u);
  }
  EXPECT_GT(events, 0u);
  // Every shard steps every window, no matter who owns the worker.
  EXPECT_EQ(windows_stepped, 4u * tel.windows);

  const std::string full = obs::engine_telemetry_json(tel);
  EXPECT_NE(full.find("soccluster-engine-telemetry/v1"), std::string::npos);
  EXPECT_NE(full.find("\"counters\""), std::string::npos);
  EXPECT_NE(full.find("\"sharding\""), std::string::npos);
  EXPECT_NE(full.find("\"timing\""), std::string::npos);
  EXPECT_EQ(full.back(), '\n');

  const std::string trace = obs::engine_wallclock_trace_json(tel);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("coordinator"), std::string::npos);
  EXPECT_NE(trace.find("\"step\""), std::string::npos);
  EXPECT_EQ(trace.back(), '\n');

  // A serial run fills only the run shape and the wall clock.
  sim::EngineTelemetry serial_tel;
  (void)run_with_telemetry("jacobi", 1, 0, {}, &serial_tel);
  EXPECT_FALSE(serial_tel.windowed);
  EXPECT_EQ(serial_tel.shards, 1);
  EXPECT_GT(serial_tel.wall_total_ns, 0u);

  // A cap smaller than the run truncates per lane and counts every
  // dropped span — bounded artifacts, never silent truncation.
  sim::EngineTelemetry capped;
  capped.max_spans_per_lane = 16;
  (void)run_with_telemetry("jacobi", 4, 0, {}, &capped);
  EXPECT_GT(capped.spans_dropped, 0u);
  EXPECT_LE(capped.spans.size(),
            16u * (1u + static_cast<unsigned>(
                            capped.worker_busy_ns.size())));
}

// Contract 2a: attaching telemetry never changes the committed stream.
TEST(Telemetry, AttachmentLeavesCommittedStreamUntouched) {
  for (const int shards : {1, 4}) {
    sim::EngineTelemetry tel;
    const auto with = run_with_telemetry("cg", shards, 0, {}, &tel);
    const auto without = run_with_telemetry("cg", shards, 0, {}, nullptr);
    EXPECT_EQ(with.stats.event_checksum, without.stats.event_checksum)
        << "shards=" << shards;
    EXPECT_EQ(with.stats.events_committed, without.stats.events_committed)
        << "shards=" << shards;
    EXPECT_EQ(with.stats.makespan, without.stats.makespan)
        << "shards=" << shards;
  }
}

// Contract 2b: with telemetry detached, the perf harness's timed region
// is untouched by the feature.  The explain-scaling rep runs outside the
// timed loop, so the timed reps of both reports execute the identical
// detached code path: allocations per event must agree exactly (the
// allocation stream is deterministic) and throughput must sit within a
// generous noise band of the plain run's.
TEST(Telemetry, DetachedPerfRunStaysZeroOverhead) {
  const auto cases = cluster::default_perf_cases(/*quick=*/true);
  cluster::PerfConfig plain;
  plain.reps = 2;
  cluster::PerfConfig instrumented;
  instrumented.reps = 2;
  instrumented.explain_scaling = true;

  const auto base = cluster::measure_engine(cases, plain);
  const auto scaled = cluster::measure_engine(cases, instrumented);
  ASSERT_EQ(base.samples.size(), scaled.samples.size());
  for (std::size_t i = 0; i < base.samples.size(); ++i) {
    const cluster::PerfSample& b = base.samples[i];
    const cluster::PerfSample& s = scaled.samples[i];
    EXPECT_EQ(b.checksum, s.checksum) << b.name;
    EXPECT_EQ(b.events, s.events) << b.name;
    EXPECT_DOUBLE_EQ(b.allocs_per_event, s.allocs_per_event) << b.name;
    ASSERT_GT(b.events_per_second, 0.0) << b.name;
    const double ratio = s.events_per_second / b.events_per_second;
    EXPECT_GT(ratio, 0.25) << b.name;
    EXPECT_LT(ratio, 4.0) << b.name;
  }
}

// Contract 3: the decomposition closes with zero residual on every
// fig5/fig6 configuration (explain_scaling itself asserts the identity
// and the sign invariants; the expectations here re-state them so a
// failure reads as a test diff, not an engine abort).
TEST(Telemetry, ZeroResidualOnEveryFigConfig) {
  cluster::PerfConfig config;
  config.reps = 1;
  config.explain_scaling = true;
  const auto report =
      cluster::measure_engine(cluster::default_perf_cases(/*quick=*/false),
                              config);
  int decomposed = 0;
  for (const cluster::PerfSample& s : report.samples) {
    if (s.baseline.empty()) continue;
    ASSERT_TRUE(s.has_scaling) << s.name;
    const prof::ScalingDecomposition& d = s.scaling;
    ++decomposed;
    EXPECT_GT(d.serial_wall_ns, 0) << s.name;
    EXPECT_GT(d.sharded_wall_ns, 0) << s.name;
    EXPECT_GE(d.imbalance_ns, 0) << s.name;
    EXPECT_GE(d.barrier_ns, 0) << s.name;
    EXPECT_GE(d.mailbox_merge_ns, 0) << s.name;
    EXPECT_EQ(d.imbalance_ns + d.barrier_ns + d.mailbox_merge_ns +
                  d.serial_residual_ns,
              d.core_gap_ns)
        << s.name;
    const std::string json = prof::scaling_json(d);
    EXPECT_NE(json.find("\"serial_residual_ns\""), std::string::npos);
  }
  // One sharded row per fig5/fig6 workload (5 + 8).
  EXPECT_EQ(decomposed, 13);
}

// The speedup gate of diff_perf_baseline (satellite): a baseline whose
// sharded row recorded a higher speedup than the fresh report must fail
// the speedup tolerance, and pass once the tolerance absorbs the drop.
TEST(Telemetry, BaselineDiffGatesSpeedup) {
  cluster::PerfReport report;
  cluster::PerfSample serial;
  serial.name = "fig5/x";
  serial.events = 100;
  serial.checksum = 7;
  serial.events_per_second = 1000.0;
  cluster::PerfSample sharded = serial;
  sharded.name = "fig5/x/4shards";
  sharded.baseline = "fig5/x";
  sharded.events_per_second = 1500.0;
  sharded.speedup_vs_baseline = 1.5;
  report.samples = {serial, sharded};
  report.hardware_concurrency = 4;

  cluster::PerfReport baseline = report;
  baseline.samples[1].speedup_vs_baseline = 3.0;  // The committed run scaled 2x better.
  const std::string strict =
      cluster::diff_perf_baseline(report, baseline, 0.01, 0.9).failures;
  EXPECT_NE(strict.find("speedup regressed"), std::string::npos) << strict;
  const cluster::PerfDiff loose =
      cluster::diff_perf_baseline(report, baseline, 0.01, 0.4);
  EXPECT_EQ(loose.failures, "");
  EXPECT_EQ(loose.notes, "");
}

// A sharded row recorded on another core count (or on an unknown one) is
// not comparable: its events/s and speedup gates are skipped with a note,
// while the exact event/checksum gate and the serial rows' events/s floor
// still apply.
TEST(Telemetry, BaselineDiffSkipsShardedGatesAcrossCoreCounts) {
  cluster::PerfReport report;
  cluster::PerfSample serial;
  serial.name = "fig5/x";
  serial.events = 100;
  serial.checksum = 7;
  serial.events_per_second = 1000.0;
  cluster::PerfSample sharded = serial;
  sharded.name = "fig5/x/4shards";
  sharded.shards = 4;
  sharded.baseline = "fig5/x";
  sharded.events_per_second = 25.0;
  sharded.speedup_vs_baseline = 0.025;
  report.samples = {serial, sharded};
  report.hardware_concurrency = 4;

  for (const unsigned recorded : {1u, 0u}) {
    cluster::PerfReport baseline = report;
    baseline.hardware_concurrency = recorded;
    baseline.samples[1].events_per_second = 960.0;
    baseline.samples[1].speedup_vs_baseline = 0.96;
    const cluster::PerfDiff diff =
        cluster::diff_perf_baseline(report, baseline, 0.25, 0.5);
    EXPECT_EQ(diff.failures, "");
    EXPECT_NE(diff.notes.find(
                  "fig5/x/4shards events/s and speedup gates skipped"),
              std::string::npos)
        << diff.notes;

    baseline.samples[0].events_per_second = 8000.0;
    baseline.samples[1].checksum = 8;
    const std::string failures =
        cluster::diff_perf_baseline(report, baseline, 0.25, 0.5).failures;
    EXPECT_NE(failures.find("fig5/x throughput regressed"), std::string::npos)
        << failures;
    EXPECT_NE(failures.find("fig5/x/4shards committed stream changed"),
              std::string::npos)
        << failures;
  }

  // On the baseline's own core count every gate applies.
  cluster::PerfReport same = report;
  same.samples[1].events_per_second = 960.0;
  same.samples[1].speedup_vs_baseline = 0.96;
  const std::string failures =
      cluster::diff_perf_baseline(report, same, 0.25, 0.5).failures;
  EXPECT_NE(failures.find("fig5/x/4shards throughput regressed"),
            std::string::npos)
      << failures;
  EXPECT_NE(failures.find("fig5/x/4shards speedup regressed"),
            std::string::npos)
      << failures;
}

// The report records its host's hardware_concurrency, and the baseline
// loader reads it back.
TEST(Telemetry, PerfReportRoundTripsHardwareConcurrency) {
  cluster::PerfReport report;
  cluster::PerfSample s;
  s.name = "fig5/x";
  s.events = 100;
  s.checksum = 7;
  s.events_per_second = 1000.0;
  report.samples = {s};
  report.hardware_concurrency = 6;
  const std::string path =
      ::testing::TempDir() + "perf_report_round_trip.json";
  cluster::write_perf_report(path, report);
  const cluster::PerfReport loaded = cluster::load_perf_baseline(path);
  EXPECT_EQ(loaded.hardware_concurrency, 6u);
  ASSERT_EQ(loaded.samples.size(), 1u);
  EXPECT_EQ(loaded.samples[0].checksum, 7u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace soc
