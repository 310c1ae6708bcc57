// Tests for trace/ (phase chopping, scenario replay) and core/ (roofline
// models, efficiency decomposition, scaling fits, PLS counter analysis).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "core/counters_analysis.h"
#include "core/efficiency.h"
#include "core/extended_roofline.h"
#include "core/roofline.h"
#include "core/scaling.h"
#include "sim/engine.h"
#include "trace/chop.h"
#include "trace/export.h"
#include "trace/replay.h"
#include "trace/timeline.h"

namespace soc {
namespace {

class SimpleCost : public sim::CostModel {
 public:
  SimTime cpu_compute_time(int, const sim::Op& op) const override {
    return static_cast<SimTime>(op.instructions);
  }
  SimTime gpu_kernel_time(int, const sim::Op& op) const override {
    return static_cast<SimTime>(op.flops);
  }
  SimTime copy_time(int, const sim::Op&) const override {
    return 1 * kMillisecond;
  }
  SimTime message_latency(int s, int d) const override {
    return s == d ? 0 : 1 * kMillisecond;
  }
  SimTime message_transfer_time(int, int, Bytes bytes) const override {
    return transfer_time(bytes, 1e9);
  }
  SimTime send_overhead(int) const override { return 0; }
  SimTime recv_overhead(int) const override { return 0; }
};

// A small unbalanced two-rank exchange workload.
std::vector<sim::Program> unbalanced_programs() {
  std::vector<sim::Program> programs(2);
  for (int iter = 0; iter < 5; ++iter) {
    const int tag_a = 2 * iter;
    const int tag_b = 2 * iter + 1;
    programs[0].push_back(sim::phase_op(iter));
    programs[1].push_back(sim::phase_op(iter));
    programs[0].push_back(sim::cpu_op(100 * kMillisecond, 1e6, 0, 0));
    programs[1].push_back(sim::cpu_op(60 * kMillisecond, 1e6, 0, 0));
    programs[0].push_back(sim::send_op(1, 10 * kMB, tag_a));
    programs[0].push_back(sim::recv_op(1, 10 * kMB, tag_b));
    programs[1].push_back(sim::recv_op(0, 10 * kMB, tag_a));
    programs[1].push_back(sim::send_op(0, 10 * kMB, tag_b));
  }
  return programs;
}

TEST(Chop, PhaseSummariesPerPhase) {
  SimpleCost cost;
  sim::Engine engine(sim::Placement::block(2, 2), cost);
  const sim::RunStats stats = engine.run(unbalanced_programs());
  const auto phases = trace::chop_phases(stats);
  ASSERT_EQ(phases.size(), 5u);
  for (const trace::PhaseSummary& p : phases) {
    EXPECT_NEAR(p.max_compute_s, 0.1, 1e-9);
    EXPECT_NEAR(p.min_compute_s, 0.06, 1e-9);
    EXPECT_NEAR(p.load_balance, 0.08 / 0.1, 1e-9);
  }
}

TEST(Chop, GlobalLoadBalance) {
  SimpleCost cost;
  sim::Engine engine(sim::Placement::block(2, 2), cost);
  const sim::RunStats stats = engine.run(unbalanced_programs());
  EXPECT_NEAR(trace::global_load_balance(stats), 0.8, 1e-9);
}

TEST(Replay, IdealBalanceScalesInversely) {
  SimpleCost cost;
  sim::Engine engine(sim::Placement::block(2, 2), cost);
  const sim::RunStats stats = engine.run(unbalanced_programs());
  const auto scales = sim::ideal_balance_scales(stats);
  ASSERT_EQ(scales.size(), 2u);
  // Rank 0 does 100 ms/iter, rank 1 does 60: average is 80.
  EXPECT_NEAR(scales[0], 0.8, 1e-9);
  EXPECT_NEAR(scales[1], 80.0 / 60.0, 1e-9);
}

TEST(Replay, ScenarioOrdering) {
  SimpleCost cost;
  const auto runs = trace::replay_scenarios(sim::Placement::block(2, 2), cost,
                                            unbalanced_programs());
  // Ideal network can only help; ideal balance too (for this workload).
  EXPECT_LE(runs.ideal_network.seconds(), runs.measured.seconds());
  EXPECT_LE(runs.ideal_balance.seconds(), runs.measured.seconds() + 1e-9);
}

TEST(Efficiency, FactorsMultiplyToEta) {
  SimpleCost cost;
  const auto runs = trace::replay_scenarios(sim::Placement::block(2, 2), cost,
                                            unbalanced_programs());
  const core::EfficiencyDecomposition d = core::decompose(runs);
  // Identity: LB·Ser·Trf == mean_compute / T_measured (up to clamping).
  const double eta = core::mean_compute_seconds(runs.measured) /
                     runs.measured.seconds();
  EXPECT_NEAR(d.efficiency, eta, 0.02);
  EXPECT_GT(d.load_balance, 0.0);
  EXPECT_LE(d.load_balance, 1.0);
  EXPECT_LE(d.serialization, 1.0);
  EXPECT_LE(d.transfer, 1.0);
  EXPECT_NEAR(d.load_balance, 0.8, 1e-6);
}

TEST(Efficiency, PerfectWorkloadScoresOne) {
  SimpleCost cost;
  std::vector<sim::Program> programs(2);
  for (int r = 0; r < 2; ++r) {
    programs[r] = {sim::phase_op(1),
                   sim::cpu_op(50 * kMillisecond, 1e6, 0, 0)};
  }
  const auto runs = trace::replay_scenarios(sim::Placement::block(2, 2), cost,
                                            programs);
  const core::EfficiencyDecomposition d = core::decompose(runs);
  EXPECT_NEAR(d.efficiency, 1.0, 1e-6);
}

TEST(Roofline, AttainableIsMinOfCeilings) {
  core::Roofline model;
  model.peak_flops = 100e9;
  model.memory_bandwidth = 10e9;
  EXPECT_DOUBLE_EQ(model.attainable(1.0), 10e9);   // memory-bound
  EXPECT_DOUBLE_EQ(model.attainable(100.0), 100e9);  // compute-bound
  EXPECT_DOUBLE_EQ(model.ridge_point(), 10.0);
  EXPECT_TRUE(model.memory_bound(1.0));
  EXPECT_FALSE(model.memory_bound(100.0));
}

TEST(Roofline, SampleIsMonotone) {
  core::Roofline model;
  model.peak_flops = 100e9;
  model.memory_bandwidth = 10e9;
  const auto pts = core::sample_roofline(model, 0.01, 1000.0, 50);
  ASSERT_EQ(pts.size(), 50u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].attainable_flops, pts[i - 1].attainable_flops);
  }
  EXPECT_DOUBLE_EQ(pts.back().attainable_flops, 100e9);
}

TEST(ExtendedRoofline, ThreeWayMin) {
  core::ExtendedRoofline model;
  model.peak_flops = 16e9;
  model.memory_bandwidth = 20e9;
  model.network_bandwidth = 0.117e9;
  // Eq. 3 with all three regimes.
  EXPECT_DOUBLE_EQ(model.attainable(0.1, 1e6), 2e9);  // operational
  EXPECT_DOUBLE_EQ(model.attainable(100.0, 10.0), 1.17e9);  // network
  EXPECT_DOUBLE_EQ(model.attainable(100.0, 1e6), 16e9);  // compute
  EXPECT_EQ(model.limit(0.1, 1e6), core::RooflineLimit::kOperational);
  EXPECT_EQ(model.limit(100.0, 10.0), core::RooflineLimit::kNetwork);
  EXPECT_EQ(model.limit(100.0, 1e6), core::RooflineLimit::kCompute);
}

TEST(ExtendedRoofline, LimitingIntensityIgnoresCompute) {
  core::ExtendedRoofline model;
  model.peak_flops = 1e9;  // tiny peak: everything is compute-capped
  model.memory_bandwidth = 20e9;
  model.network_bandwidth = 0.117e9;
  // Still reports which transfer channel binds tighter (Table II).
  EXPECT_EQ(model.limiting_intensity(1.0, 1000.0),
            core::RooflineLimit::kOperational);
  EXPECT_EQ(model.limiting_intensity(100.0, 10.0),
            core::RooflineLimit::kNetwork);
}

TEST(ExtendedRoofline, FasterNetworkMovesLimit) {
  // The paper's hpl case: network-limited at 1GbE, operational at 10GbE.
  core::ExtendedRoofline slow;
  slow.peak_flops = 12e9;
  slow.memory_bandwidth = 20e9;
  slow.network_bandwidth = 0.1175e9;
  core::ExtendedRoofline fast = slow;
  fast.network_bandwidth = 0.4125e9;
  const double oi = 2.0;
  const double ni = 120.0;
  EXPECT_EQ(slow.limiting_intensity(oi, ni), core::RooflineLimit::kNetwork);
  EXPECT_EQ(fast.limiting_intensity(oi, ni),
            core::RooflineLimit::kOperational);
}

TEST(ExtendedRoofline, MeasurementFromRunStats) {
  sim::RunStats stats;
  stats.makespan = kSecond;
  stats.total_gpu_flops = 10e9;
  stats.total_flops = 10e9;
  stats.total_gpu_dram_bytes = 40e9;
  stats.total_dram_bytes = 40e9;
  stats.total_net_bytes = static_cast<Bytes>(0.1e9);
  stats.ranks.resize(4);

  core::ExtendedRoofline model;
  model.peak_flops = 16e9;
  model.memory_bandwidth = 20e9;
  model.network_bandwidth = 0.41e9;
  const auto m = core::measure_roofline(model, stats, 4, "test");
  EXPECT_NEAR(m.operational_intensity, 0.25, 1e-9);
  EXPECT_NEAR(m.network_intensity, 100.0, 1e-9);
  EXPECT_NEAR(m.achieved_flops, 2.5e9, 1e-3);
  // attainable = min(16, 0.25·20=5, 100·0.41=41) = 5 GF.
  EXPECT_NEAR(m.attainable_flops, 5e9, 1e-3);
  EXPECT_NEAR(m.percent_of_peak, 50.0, 1e-6);
}

TEST(Scaling, FitsPerfectlyParallelWorkload) {
  std::vector<core::ScalingSample> samples;
  for (int p : {2, 4, 8, 16}) {
    samples.push_back({p, 100.0 / p});
  }
  const core::ScalingModel model = core::fit_scaling(samples);
  EXPECT_GT(model.r2, 0.999);
  EXPECT_NEAR(model.predict_speedup(32), 32.0, 1.5);
}

TEST(Scaling, AmdahlSaturates) {
  // 10% serial fraction: speedup caps near 10.
  std::vector<core::ScalingSample> samples;
  for (int p : {2, 4, 8, 16}) {
    samples.push_back({p, 10.0 + 90.0 / p});
  }
  const core::ScalingModel model = core::fit_scaling(samples);
  EXPECT_GT(model.r2, 0.999);
  EXPECT_LT(model.predict_speedup(256), 10.5);
  EXPECT_GT(model.predict_speedup(256), 5.0);
}

TEST(Scaling, CommunicationCostsDegradeSpeedup) {
  // Linear-in-P communication term: speedup peaks then falls.
  std::vector<core::ScalingSample> samples;
  for (int p : {2, 4, 8, 16}) {
    samples.push_back({p, 100.0 / p + 0.5 * p});
  }
  const core::ScalingModel model = core::fit_scaling(samples);
  EXPECT_GT(model.predict_speedup(16), model.predict_speedup(256));
}

TEST(Scaling, RejectsTooFewSamples) {
  EXPECT_THROW(core::fit_scaling({{2, 1.0}, {4, 0.5}}), Error);
}

TEST(Scaling, ExtrapolateMatchesPredict) {
  std::vector<core::ScalingSample> samples;
  for (int p : {2, 4, 8, 16}) samples.push_back({p, 50.0 / p + 1.0});
  const core::ScalingModel model = core::fit_scaling(samples);
  const auto speedups = core::extrapolate_speedups(model, {16, 64});
  EXPECT_DOUBLE_EQ(speedups[0], model.predict_speedup(16));
  EXPECT_DOUBLE_EQ(speedups[1], model.predict_speedup(64));
}

// --- counters analysis ---

core::BenchmarkObservation make_observation(const std::string& name,
                                            double br_ratio_a,
                                            double l2_ratio_a,
                                            double runtime_a) {
  core::BenchmarkObservation obs;
  obs.name = name;
  auto fill = [](arch::CounterSet& c, double br, double l2) {
    c[arch::PmuEvent::kInstRetired] = 1e9;
    c[arch::PmuEvent::kInstSpec] = 1e9 * (1.0 + br);
    c[arch::PmuEvent::kBrRetired] = 1.5e8;
    c[arch::PmuEvent::kBrMisPred] = 1.5e8 * br;
    c[arch::PmuEvent::kL1dCache] = 4e8;
    c[arch::PmuEvent::kL1dCacheRefill] = 4e7;
    c[arch::PmuEvent::kL2dCache] = 4e7;
    c[arch::PmuEvent::kL2dCacheRefill] = 4e7 * l2;
    c[arch::PmuEvent::kMemAccess] = 4e8;
    c[arch::PmuEvent::kCpuCycles] = 2e9;
  };
  fill(obs.system_a, br_ratio_a, l2_ratio_a);
  fill(obs.system_b, 0.04, 0.3);  // fixed baseline system
  obs.runtime_a = runtime_a;
  obs.runtime_b = 1.0;
  return obs;
}

TEST(CountersAnalysis, VariableNamesExcludeTimeProxies) {
  const auto names = core::analysis_variable_names();
  for (const std::string& n : names) {
    EXPECT_NE(n, "CPU_CYCLES");
    EXPECT_NE(n, "IPC");
    EXPECT_NE(n, "STALL_BACKEND");
  }
  EXPECT_EQ(names.size(), 12u);  // the paper's twelve-variable analysis
}

TEST(CountersAnalysis, PicksTheDrivingMetric) {
  // Runtime tracks the L2 miss ratio exactly; branch behaviour is flat.
  std::vector<core::BenchmarkObservation> obs;
  const double l2s[] = {0.3, 0.5, 0.7, 0.9, 0.4, 0.6};
  int i = 0;
  for (double l2 : l2s) {
    obs.push_back(make_observation("b" + std::to_string(i++), 0.04, l2,
                                   0.5 + l2));
  }
  const core::CounterAnalysis analysis = core::analyze_counters(obs, 3);
  bool found_l2 = false;
  for (const std::string& v : analysis.top_variables) {
    found_l2 |= v == "LD_MISS_RATIO" || v == "L2D_CACHE_REFILL";
  }
  EXPECT_TRUE(found_l2);
}

TEST(CountersAnalysis, BranchDrivenDataPicksBranchMetric) {
  std::vector<core::BenchmarkObservation> obs;
  const double brs[] = {0.02, 0.05, 0.08, 0.12, 0.03, 0.10};
  int i = 0;
  for (double br : brs) {
    obs.push_back(make_observation("b" + std::to_string(i++), br, 0.3,
                                   0.8 + 5.0 * br));
  }
  const core::CounterAnalysis analysis = core::analyze_counters(obs, 3);
  bool found_branch = false;
  for (const std::string& v : analysis.top_variables) {
    found_branch |= v == "BR_MIS_PRED" || v == "BR_MIS_RATIO" ||
                    v == "INST_SPEC";
  }
  EXPECT_TRUE(found_branch);
}

TEST(CountersAnalysis, RejectsTooFewBenchmarks) {
  std::vector<core::BenchmarkObservation> obs;
  obs.push_back(make_observation("a", 0.05, 0.5, 1.0));
  EXPECT_THROW(core::analyze_counters(obs), Error);
}

TEST(CountersAnalysis, RelativeRowIsOneForIdenticalSystems) {
  core::BenchmarkObservation obs = make_observation("same", 0.04, 0.3, 1.0);
  obs.system_a = obs.system_b;
  const stats::Vec row = core::relative_row(obs);
  for (double v : row) EXPECT_NEAR(v, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Timeline rendering edge cases
// ---------------------------------------------------------------------------

// Stats with `nodes` nodes whose cpu lane is uniformly `busy_fraction`
// utilized over `bins` bins (gpu/nic lanes left empty so only the cpu
// rows render).
sim::RunStats uniform_cpu_stats(int nodes, int bins, double busy_fraction) {
  sim::RunStats stats;
  stats.timeline_bin_seconds = 0.1;
  stats.makespan = static_cast<SimTime>(bins) * 100 * kMillisecond;
  stats.nodes.resize(static_cast<std::size_t>(nodes));
  for (auto& tl : stats.nodes) {
    tl.cpu_busy.assign(static_cast<std::size_t>(bins),
                       busy_fraction * stats.timeline_bin_seconds);
  }
  return stats;
}

TEST(Timeline, EmptyStatsRenderHeaderAndLegendOnly) {
  const sim::RunStats stats;  // no nodes, zero makespan
  const std::string out = trace::render_timeline(stats);
  EXPECT_NE(out.find("timeline: 0s"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_EQ(out.find("node0"), std::string::npos);
  EXPECT_EQ(out.find("more nodes"), std::string::npos);
}

TEST(Timeline, SingleBinFillsTheWholeStrip) {
  const sim::RunStats stats = uniform_cpu_stats(1, 1, 0.6);
  trace::TimelineOptions options;
  options.width = 10;
  options.cores_per_node = 1;
  const std::string out = trace::render_timeline(stats, options);
  // One 60%-busy bin resamples to '=' ([0.50, 0.75)) across every bucket.
  EXPECT_NE(out.find("node0 cpu |==========|"), std::string::npos);
}

TEST(Timeline, GlyphThresholds) {
  // Utilizations chosen with safe margins around the documented
  // boundaries: <5%, <25%, <50%, <75%, <95%, >=95%.
  const struct { double utilization; char glyph; } cases[] = {
      {0.04, ' '}, {0.10, '.'}, {0.30, '-'},
      {0.60, '='}, {0.80, '#'}, {0.96, '@'},
  };
  for (const auto& c : cases) {
    const sim::RunStats stats = uniform_cpu_stats(1, 10, c.utilization);
    trace::TimelineOptions options;
    options.width = 10;
    options.cores_per_node = 1;
    const std::string out = trace::render_timeline(stats, options);
    EXPECT_NE(out.find("|" + std::string(10, c.glyph) + "|"),
              std::string::npos)
        << "utilization " << c.utilization << " should render '" << c.glyph
        << "':\n" << out;
  }
}

TEST(Timeline, MaxNodesSummarizesTheRest) {
  const sim::RunStats stats = uniform_cpu_stats(5, 2, 0.3);
  trace::TimelineOptions options;
  options.max_nodes = 2;
  const std::string out = trace::render_timeline(stats, options);
  EXPECT_NE(out.find("node0 cpu"), std::string::npos);
  EXPECT_NE(out.find("node1 cpu"), std::string::npos);
  EXPECT_EQ(out.find("node2 cpu"), std::string::npos);
  EXPECT_NE(out.find("(3 more nodes not shown)"), std::string::npos);
}

TEST(Timeline, NarrowWidthRejected) {
  trace::TimelineOptions options;
  options.width = 4;
  EXPECT_THROW(trace::render_timeline(sim::RunStats{}, options), Error);
}

// ---------------------------------------------------------------------------
// soctrace export → import → export stability
// ---------------------------------------------------------------------------

TEST(Export, RoundTripIsByteStable) {
  // One op of every verb, exercising every field the format carries.
  std::vector<sim::Program> programs(2);
  programs[0] = {
      sim::phase_op(0),
      sim::cpu_op(1.5e6, 2e6, 4096, 3, 0),
      sim::gpu_op(1e9, 8 * kMB, sim::MemModel::kZeroCopy, 0, 1e6, false),
      sim::copy_h2d_op(2 * kMB, sim::MemModel::kHostDevice, 0),
      sim::copy_d2h_op(1 * kMB, sim::MemModel::kUnified, 0),
      sim::send_op(1, 64 * kKiB, 7, 0),
      sim::isend_op(1, 3 * kKiB, 8, 0),
      sim::wait_all_op(0),
  };
  programs[1] = {
      sim::phase_op(0),
      sim::recv_op(0, 64 * kKiB, 7, 0),
      sim::irecv_op(0, 3 * kKiB, 8, 0),
      sim::wait_all_op(0),
  };
  const std::string once = trace::export_programs(programs);
  const std::string twice =
      trace::export_programs(trace::import_programs(once));
  EXPECT_EQ(once, twice);
  // And a third pass for fixed-point confirmation.
  EXPECT_EQ(twice, trace::export_programs(trace::import_programs(twice)));
}

}  // namespace
}  // namespace soc
