// Tests for the power/ energy layer beyond the basics in
// gpu_power_test.cpp: exact integration of partial last bins, peak
// tracking, breakdown/total consistency, the binned PowerTimeline, the
// linear-time 1 Hz resampler (vs the quadratic reference loop), the DVFS
// power curve, and the power-cap what-if.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "power/power_model.h"
#include "sim/engine.h"

namespace soc {
namespace {

// A run with per-bin load ramps so every bin has a distinct draw; the
// last bin is partial when `seconds` is not a multiple of 0.1.
sim::RunStats ramp_run(double seconds) {
  sim::RunStats stats;
  stats.makespan = static_cast<SimTime>(std::llround(seconds * 1e9));
  stats.ranks.resize(2);
  stats.nodes.resize(2);
  const std::size_t bins =
      static_cast<std::size_t>(std::ceil(seconds / 0.1));
  for (std::size_t n = 0; n < stats.nodes.size(); ++n) {
    auto& tl = stats.nodes[n];
    tl.cpu_busy.assign(bins, 0.0);
    tl.gpu_busy.assign(bins, 0.0);
    tl.nic_busy.assign(bins, 0.0);
    tl.dram_bytes.assign(bins, 0.0);
    for (std::size_t b = 0; b < bins; ++b) {
      tl.cpu_busy[b] = 0.01 * static_cast<double>(b % 7);
      tl.gpu_busy[b] = 0.005 * static_cast<double>(b % 5);
      tl.nic_busy[b] = 0.002 * static_cast<double>(b % 3);
      tl.dram_bytes[b] = 1e7 * static_cast<double>(b % 4);
    }
  }
  return stats;
}

power::NodePowerConfig test_node() {
  power::NodePowerConfig node;
  node.idle_w = 4.0;
  node.cpu_core_active_w = 1.5;
  node.gpu_active_w = 7.0;
  node.dram_w_per_gbps = 0.25;
  node.nic_idle_w = 0.4;
  node.nic_active_w = 0.8;
  node.host_overhead_w = 0.5;
  return node;
}

TEST(Power, PartialLastBinIntegratesExactly) {
  power::NodePowerConfig node;
  node.idle_w = 10.0;
  node.nic_idle_w = 0.0;
  node.host_overhead_w = 0.0;
  sim::RunStats stats;
  stats.makespan = 250 * kMillisecond;  // 2.5 bins at 0.1 s
  stats.ranks.resize(1);
  stats.nodes.resize(1);
  const power::EnergyReport r = power::measure_energy(stats, node, 4);
  // 10 W x 0.25 s: the final half bin must contribute half a bin.
  EXPECT_NEAR(r.joules, 2.5, 1e-12);
  EXPECT_NEAR(r.average_watts, 10.0, 1e-12);
}

TEST(Power, PeakWattsIsMaxBinDraw) {
  const sim::RunStats stats = ramp_run(2.0);
  const power::NodePowerConfig node = test_node();
  const power::PowerTimeline tl = power::power_timeline(stats, node, 4);
  const power::EnergyReport r = power::measure_energy(stats, node, 4);
  double peak = 0.0;
  for (const double w : tl.bin_watts) peak = std::max(peak, w);
  EXPECT_DOUBLE_EQ(r.peak_watts, peak);
  EXPECT_GT(r.peak_watts, r.average_watts);
}

TEST(Power, BreakdownSumsToJoules) {
  const power::EnergyReport r =
      power::measure_energy(ramp_run(2.35), test_node(), 4);
  const double sum = r.breakdown.idle + r.breakdown.cpu + r.breakdown.gpu +
                     r.breakdown.nic + r.breakdown.dram;
  // Separate accumulators: equal up to FP addition order, not bit-equal.
  EXPECT_NEAR(sum, r.joules, 1e-9 * r.joules);
}

TEST(Power, ZeroDurationRunIsEmpty) {
  sim::RunStats stats;
  stats.makespan = 0;
  const power::NodePowerConfig node = test_node();
  const power::PowerTimeline tl = power::power_timeline(stats, node, 4);
  EXPECT_TRUE(tl.bin_watts.empty());
  const power::EnergyReport r = power::measure_energy(stats, node, 4);
  EXPECT_DOUBLE_EQ(r.joules, 0.0);
  EXPECT_DOUBLE_EQ(r.peak_watts, 0.0);
  EXPECT_TRUE(r.samples_w.empty());
}

TEST(Power, TimelinePartsSumToBinWatts) {
  const power::PowerTimeline tl =
      power::power_timeline(ramp_run(1.75), test_node(), 4);
  ASSERT_FALSE(tl.bin_watts.empty());
  EXPECT_EQ(tl.bin_parts.size(), tl.bin_watts.size());
  for (std::size_t b = 0; b < tl.bin_watts.size(); ++b) {
    const power::EnergyBreakdown& p = tl.bin_parts[b];
    // The total is computed as this exact sum when the bin is filled.
    EXPECT_DOUBLE_EQ(tl.bin_watts[b],
                     p.idle + p.cpu + p.gpu + p.nic + p.dram);
  }
}

TEST(Power, ResamplerMatchesQuadraticReference) {
  // The two-pointer 1 Hz sweep must be bit-identical to the plain
  // seconds x bins scan it replaced (same overlap terms, same order).
  const sim::RunStats stats = ramp_run(3.47);
  const power::NodePowerConfig node = test_node();
  const power::PowerTimeline tl = power::power_timeline(stats, node, 4);
  const power::EnergyReport r = power::measure_energy(stats, node, 4);
  const double bin_s = tl.bin_seconds;
  ASSERT_EQ(r.samples_w.size(), 4u);
  ASSERT_EQ(r.samples_parts.size(), r.samples_w.size());
  for (std::size_t s = 0; s < r.samples_w.size(); ++s) {
    const double t0 = static_cast<double>(s);
    const double t1 = std::min(t0 + 1.0, r.seconds);
    double joules = 0.0;
    for (std::size_t b = 0; b < tl.bin_watts.size(); ++b) {
      const double b0 = static_cast<double>(b) * bin_s;
      const double b1 = std::min(b0 + bin_s, r.seconds);
      const double overlap = std::min(t1, b1) - std::max(t0, b0);
      if (overlap > 0.0) joules += tl.bin_watts[b] * overlap;
    }
    EXPECT_DOUBLE_EQ(r.samples_w[s], joules / std::max(t1 - t0, 1e-9));
  }
}

TEST(Power, SampleComponentsSumToSample) {
  const power::EnergyReport r =
      power::measure_energy(ramp_run(2.2), test_node(), 4);
  ASSERT_EQ(r.samples_parts.size(), r.samples_w.size());
  for (std::size_t s = 0; s < r.samples_w.size(); ++s) {
    const power::EnergyBreakdown& p = r.samples_parts[s];
    EXPECT_NEAR(p.idle + p.cpu + p.gpu + p.nic + p.dram, r.samples_w[s],
                1e-9 * std::max(1.0, r.samples_w[s]));
  }
}

TEST(Power, BreakdownEquality) {
  power::EnergyBreakdown a;
  a.cpu = 1.0;
  power::EnergyBreakdown b = a;
  EXPECT_TRUE(a == b);
  b.dram = 0.5;
  EXPECT_FALSE(a == b);
}

TEST(Power, DvfsPowerFactorCurve) {
  const power::NodePowerConfig node = test_node();
  // 1.0 is an exact identity (no pow() rounding).
  EXPECT_EQ(power::dvfs_power_factor(node, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(power::dvfs_power_factor(node, 0.8),
                   std::pow(0.8, 2.5));
  EXPECT_LT(power::dvfs_power_factor(node, 0.6), 0.6);  // superlinear save
  EXPECT_GT(power::dvfs_power_factor(node, 1.2), 1.2);  // superlinear cost
  EXPECT_THROW(power::dvfs_power_factor(node, 0.0), Error);
}

TEST(Power, CapAbovePeakIsBitExactIdentity) {
  const sim::RunStats stats = ramp_run(2.35);
  const power::NodePowerConfig node = test_node();
  const power::PowerTimeline tl = power::power_timeline(stats, node, 4);
  const power::EnergyReport measured = power::measure_energy(stats, node, 4);
  const power::CappedEnergy capped =
      power::apply_power_cap(tl, node, 2, measured.peak_watts + 1.0);
  EXPECT_EQ(capped.capped_bins, 0u);
  EXPECT_DOUBLE_EQ(capped.extra_seconds, 0.0);
  // Identical FP terms in identical order: bit-exact, not just close.
  EXPECT_EQ(capped.energy.joules, measured.joules);
  EXPECT_TRUE(capped.energy.breakdown == measured.breakdown);
  EXPECT_EQ(capped.energy.seconds, measured.seconds);
}

TEST(Power, CapDilatesAndConservesActiveEnergy) {
  const sim::RunStats stats = ramp_run(2.0);
  const power::NodePowerConfig node = test_node();
  const power::PowerTimeline tl = power::power_timeline(stats, node, 4);
  const power::EnergyReport measured = power::measure_energy(stats, node, 4);
  const double cap = measured.average_watts;  // clamps the busy bins
  const power::CappedEnergy capped =
      power::apply_power_cap(tl, node, 2, cap);
  ASSERT_GT(capped.capped_bins, 0u);
  EXPECT_GT(capped.extra_seconds, 0.0);
  EXPECT_DOUBLE_EQ(capped.energy.peak_watts, cap);
  EXPECT_DOUBLE_EQ(capped.energy.seconds,
                   tl.seconds + capped.extra_seconds);
  // Active compute/DRAM energy is conserved; idle accrues over the
  // stretched runtime, so total energy can only go up.
  EXPECT_DOUBLE_EQ(capped.energy.breakdown.cpu, measured.breakdown.cpu);
  EXPECT_DOUBLE_EQ(capped.energy.breakdown.gpu, measured.breakdown.gpu);
  EXPECT_DOUBLE_EQ(capped.energy.breakdown.dram, measured.breakdown.dram);
  EXPECT_GT(capped.energy.breakdown.idle, measured.breakdown.idle);
  EXPECT_GE(capped.energy.joules, measured.joules);
}

TEST(Power, CapBelowIdleFloorThrows) {
  const sim::RunStats stats = ramp_run(1.0);
  const power::NodePowerConfig node = test_node();
  const power::PowerTimeline tl = power::power_timeline(stats, node, 4);
  // Floor per bin: 2 nodes x (idle 4 + host 0.5 + nic idle 0.4) = 9.8 W.
  const double floor_w = power::idle_floor_watts(node, 2);
  EXPECT_DOUBLE_EQ(floor_w, 9.8);
  EXPECT_THROW(power::apply_power_cap(tl, node, 2, 5.0), Error);
  // The floor is the boundary a caller can check before the run: a cap
  // at it is refused, and the next double above it is met.
  EXPECT_THROW(power::apply_power_cap(tl, node, 2, floor_w), Error);
  EXPECT_NO_THROW(
      power::apply_power_cap(tl, node, 2, std::nextafter(floor_w, 1e9)));
}

}  // namespace
}  // namespace soc
