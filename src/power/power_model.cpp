#include "power/power_model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace soc::power {

double dvfs_power_factor(const NodePowerConfig& node, double freq_scale) {
  SOC_REQUIRE(freq_scale > 0.0, "DVFS frequency scale must be positive");
  if (freq_scale == 1.0) return 1.0;  // baseline is an exact identity
  return std::pow(freq_scale, node.dvfs_power_exponent);
}

double EnergyReport::mflops_per_watt(double flops) const {
  if (joules <= 0.0) return 0.0;
  // MFLOPS/W == (FLOPs / 1e6) / joules.
  return flops / 1e6 / joules;
}

double PowerTimeline::width(std::size_t b) const {
  const double start = static_cast<double>(b) * bin_seconds;
  return std::min(bin_seconds, seconds - start);
}

PowerTimeline power_timeline(const sim::RunStats& stats,
                             const NodePowerConfig& node, int cores_per_node) {
  SOC_CHECK(cores_per_node > 0, "need at least one core per node");
  PowerTimeline tl;
  tl.seconds = stats.seconds();
  if (tl.seconds <= 0.0) return tl;

  tl.bin_seconds = sim::kTimelineBinSeconds;
  const double bin_s = tl.bin_seconds;
  const std::size_t bins =
      static_cast<std::size_t>(std::ceil(tl.seconds / bin_s));

  tl.bin_watts.assign(std::max<std::size_t>(bins, 1), 0.0);
  tl.bin_parts.assign(tl.bin_watts.size(), EnergyBreakdown{});
  for (const sim::NodeTimeline& node_tl : stats.nodes) {
    for (std::size_t b = 0; b < tl.bin_watts.size(); ++b) {
      const double cpu_busy =
          b < node_tl.cpu_busy.size() ? node_tl.cpu_busy[b] : 0.0;
      const double gpu_busy =
          b < node_tl.gpu_busy.size() ? node_tl.gpu_busy[b] : 0.0;
      const double nic_busy =
          b < node_tl.nic_busy.size() ? node_tl.nic_busy[b] : 0.0;
      const double dram_bytes =
          b < node_tl.dram_bytes.size() ? node_tl.dram_bytes[b] : 0.0;

      // Busy seconds within the bin -> utilization in [0, capacity].
      const double cpu_util =
          std::min(cpu_busy / bin_s, static_cast<double>(cores_per_node));
      const double gpu_util = std::min(gpu_busy / bin_s, 1.0);
      const double nic_util = std::min(nic_busy / bin_s, 1.0);
      const double dram_gbps = dram_bytes / bin_s / 1e9;

      EnergyBreakdown& parts = tl.bin_parts[b];
      parts.idle += node.idle_w + node.host_overhead_w;
      parts.cpu += cpu_util * node.cpu_core_active_w;
      parts.gpu += gpu_util * node.gpu_active_w;
      parts.nic += node.nic_idle_w + nic_util * node.nic_active_w;
      parts.dram += dram_gbps * node.dram_w_per_gbps;
      tl.bin_watts[b] = parts.idle + parts.cpu + parts.gpu + parts.nic +
                        parts.dram;
    }
  }
  return tl;
}

EnergyIntegral energy_integral(const PowerTimeline& timeline) {
  const std::size_t n = timeline.bin_watts.size();
  EnergyIntegral out{std::vector<double>(n + 1, 0.0),
                     std::vector<EnergyBreakdown>(n + 1)};
  for (std::size_t b = 0; b < n; ++b) {
    out.joules[b + 1] = out.joules[b];
    out.parts[b + 1] = out.parts[b];
    // Widths only shrink, so once the rounded-up bin count passes the
    // run's end the integral stops growing.
    const double width = timeline.width(b);
    if (width <= 0.0) continue;
    const EnergyBreakdown& rate = timeline.bin_parts[b];
    EnergyBreakdown& parts = out.parts[b + 1];
    out.joules[b + 1] += timeline.bin_watts[b] * width;
    parts.idle += rate.idle * width;
    parts.cpu += rate.cpu * width;
    parts.gpu += rate.gpu * width;
    parts.nic += rate.nic * width;
    parts.dram += rate.dram * width;
  }
  return out;
}

EnergyReport measure_energy(const sim::RunStats& stats,
                            const NodePowerConfig& node, int cores_per_node) {
  EnergyReport report;
  const PowerTimeline tl = power_timeline(stats, node, cores_per_node);
  report.seconds = tl.seconds;
  if (report.seconds <= 0.0) return report;
  const double bin_s = tl.bin_seconds;

  // Total energy: exact integral over bins (last bin may be partial).
  const EnergyIntegral integral = energy_integral(tl);
  report.joules = integral.joules.back();
  report.breakdown = integral.parts.back();
  for (std::size_t b = 0; b < tl.bin_watts.size() && tl.width(b) > 0.0; ++b) {
    report.peak_watts = std::max(report.peak_watts, tl.bin_watts[b]);
  }
  report.average_watts = report.joules / report.seconds;

  // 1 Hz samples, like the paper's wall-socket meter.  Bins and seconds
  // both advance monotonically, so one cursor over the bins visits each
  // bin O(1) times (two-pointer sweep) instead of the quadratic
  // seconds x bins scan; the overlap terms and their accumulation order
  // are unchanged, so the samples are bit-identical to the old loop.
  const std::size_t seconds = static_cast<std::size_t>(
      std::max(1.0, std::ceil(report.seconds)));
  report.samples_w.assign(seconds, 0.0);
  report.samples_parts.assign(seconds, EnergyBreakdown{});
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < seconds; ++s) {
    const double t0 = static_cast<double>(s);
    const double t1 = std::min(t0 + 1.0, report.seconds);
    // Skip bins that end at or before this second.
    while (cursor < tl.bin_watts.size() &&
           std::min(static_cast<double>(cursor) * bin_s + bin_s,
                    report.seconds) <= t0) {
      ++cursor;
    }
    double joules = 0.0;
    EnergyBreakdown parts;
    for (std::size_t b = cursor; b < tl.bin_watts.size(); ++b) {
      const double b0 = static_cast<double>(b) * bin_s;
      if (b0 >= t1) break;
      const double b1 = std::min(b0 + bin_s, report.seconds);
      const double overlap = std::min(t1, b1) - std::max(t0, b0);
      if (overlap > 0.0) {
        joules += tl.bin_watts[b] * overlap;
        parts.idle += tl.bin_parts[b].idle * overlap;
        parts.cpu += tl.bin_parts[b].cpu * overlap;
        parts.gpu += tl.bin_parts[b].gpu * overlap;
        parts.nic += tl.bin_parts[b].nic * overlap;
        parts.dram += tl.bin_parts[b].dram * overlap;
      }
    }
    const double denom = std::max(t1 - t0, 1e-9);
    report.samples_w[s] = joules / denom;
    report.samples_parts[s].idle = parts.idle / denom;
    report.samples_parts[s].cpu = parts.cpu / denom;
    report.samples_parts[s].gpu = parts.gpu / denom;
    report.samples_parts[s].nic = parts.nic / denom;
    report.samples_parts[s].dram = parts.dram / denom;
  }
  return report;
}

double idle_floor_watts(const NodePowerConfig& node, int nodes) {
  double idle = 0.0;
  for (int n = 0; n < nodes; ++n) idle += node.idle_w + node.host_overhead_w;
  return idle + static_cast<double>(nodes) * node.nic_idle_w;
}

CappedEnergy apply_power_cap(const PowerTimeline& timeline,
                             const NodePowerConfig& node, int nodes,
                             double cap_w) {
  SOC_CHECK(nodes > 0, "need at least one node");
  SOC_CHECK(cap_w > 0.0, "power cap must be positive");
  CappedEnergy out;
  out.energy.seconds = timeline.seconds;
  if (timeline.seconds <= 0.0) return out;

  const double nic_idle = static_cast<double>(nodes) * node.nic_idle_w;
  const double floor_w = idle_floor_watts(node, nodes);
  EnergyReport& e = out.energy;
  for (std::size_t b = 0; b < timeline.bin_watts.size(); ++b) {
    const double width = timeline.width(b);
    if (width <= 0.0) break;
    const double watts = timeline.bin_watts[b];
    const EnergyBreakdown& parts = timeline.bin_parts[b];
    if (watts <= cap_w) {
      // Same terms in the same order as energy_integral: an uncapped run
      // reproduces the measured integral bit-exactly.
      e.joules += watts * width;
      e.peak_watts = std::max(e.peak_watts, watts);
      e.breakdown.idle += parts.idle * width;
      e.breakdown.cpu += parts.cpu * width;
      e.breakdown.gpu += parts.gpu * width;
      e.breakdown.nic += parts.nic * width;
      e.breakdown.dram += parts.dram * width;
      continue;
    }
    // The frequency-independent floor (board + host + NIC idle) burns
    // whether or not work makes progress; only the active draw above it
    // can be slowed down.  Conserving active energy at the capped active
    // rate dilates the bin by d, so the clamped bin sits exactly at the
    // cap: (floor + active/d) == cap_w.
    SOC_REQUIRE(cap_w > floor_w,
                "power cap below the cluster's idle floor; run cannot finish");
    const double active_w = watts - floor_w;
    const double dilation = active_w / (cap_w - floor_w);
    const double stretched = width * dilation;
    e.joules += floor_w * stretched + active_w * width;
    e.peak_watts = std::max(e.peak_watts, cap_w);
    e.breakdown.idle += parts.idle * stretched;
    e.breakdown.cpu += parts.cpu * width;
    e.breakdown.gpu += parts.gpu * width;
    e.breakdown.nic += nic_idle * stretched + (parts.nic - nic_idle) * width;
    e.breakdown.dram += parts.dram * width;
    out.extra_seconds += stretched - width;
    ++out.capped_bins;
  }
  e.seconds = timeline.seconds + out.extra_seconds;
  e.average_watts = e.joules / e.seconds;
  return out;
}

}  // namespace soc::power
