#include "prof/energy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "common/error.h"
#include "obs/json.h"

namespace soc::prof {

namespace {

// Columns the attribution cuts: the total, then the component split.
constexpr std::size_t kColumns = 6;

// Column c of a (total, per-component) pair: a bin's watts or a prefix's
// joules.
double column(double total, const power::EnergyBreakdown& parts,
              std::size_t c) {
  using power::EnergyBreakdown;
  constexpr double EnergyBreakdown::*kParts[] = {
      &EnergyBreakdown::idle, &EnergyBreakdown::cpu, &EnergyBreakdown::gpu,
      &EnergyBreakdown::nic, &EnergyBreakdown::dram};
  return c == 0 ? total : parts.*kParts[c - 1];
}

// Evaluates column c of the bin-edge integral at an arbitrary time t by
// extending into the covering bin at that bin's constant rate.  The
// extension expression at a full bin width reproduces the next integral
// entry bit-exactly (same FP expression as power::energy_integral), so
// the function is monotone nondecreasing everywhere — the property the
// telescoped llround cuts rely on.
double prefix_at(const power::PowerTimeline& tl,
                 const power::EnergyIntegral& integral, std::size_t c,
                 double t) {
  const std::size_t n = tl.bin_watts.size();
  const auto prefix = [&](std::size_t b) {
    return column(integral.joules[b], integral.parts[b], c);
  };
  if (t <= 0.0 || n == 0) return 0.0;
  if (t >= tl.seconds) return prefix(n);
  const std::size_t b = std::min(
      n - 1, static_cast<std::size_t>(t / tl.bin_seconds));
  const double b0 = static_cast<double>(b) * tl.bin_seconds;
  if (t <= b0) return prefix(b);
  const double width = tl.width(b);
  const double frac = std::min(t - b0, width);
  return prefix(b) + column(tl.bin_watts[b], tl.bin_parts[b], c) * frac;
}

std::int64_t to_uj(double joules) {
  return static_cast<std::int64_t>(std::llround(joules * 1e6));
}

// Largest-remainder apportionment of `total` integer units over
// nonnegative weights: deterministic, zero residual.  Ties (equal
// fractional parts) resolve to the lower index.
std::vector<std::int64_t> apportion(const std::vector<double>& weight,
                                    std::int64_t total) {
  const std::size_t n = weight.size();
  std::vector<std::int64_t> out(n, 0);
  if (n == 0) return out;
  double wsum = 0.0;
  for (const double w : weight) wsum += w;
  if (wsum <= 0.0) {
    const std::int64_t base = total / static_cast<std::int64_t>(n);
    std::int64_t rem = total - base * static_cast<std::int64_t>(n);
    for (std::size_t r = 0; r < n; ++r) {
      out[r] = base + (static_cast<std::int64_t>(r) < rem ? 1 : 0);
    }
    return out;
  }
  std::vector<double> frac(n, 0.0);
  std::int64_t assigned = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const double quota =
        weight[r] / wsum * static_cast<double>(total);
    const double floored = std::floor(quota);
    out[r] = static_cast<std::int64_t>(floored);
    frac[r] = quota - floored;
    assigned += out[r];
  }
  std::int64_t rem = total - assigned;
  SOC_CHECK(rem >= 0 && rem <= static_cast<std::int64_t>(n),
            "energy attribution: apportionment remainder out of range");
  std::vector<std::size_t> order(n);
  for (std::size_t r = 0; r < n; ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (frac[a] != frac[b]) return frac[a] > frac[b];
    return a < b;
  });
  for (std::int64_t i = 0; i < rem; ++i) ++out[order[static_cast<std::size_t>(i)]];
  return out;
}

}  // namespace

EnergyAttribution attribute_energy(const RunTrace& trace,
                                   const power::NodePowerConfig& node,
                                   int cores_per_node) {
  EnergyAttribution out;
  out.rank_uj.assign(trace.stats.ranks.size(), 0);
  const power::PowerTimeline tl =
      power::power_timeline(trace.stats, node, cores_per_node);
  if (tl.seconds <= 0.0) return out;

  // measure_energy's totals are the last entry of this same integral, so
  // out.joules and out.breakdown reproduce the EnergyReport bit-exactly.
  const power::EnergyIntegral integral = power::energy_integral(tl);
  out.joules = integral.joules.back();
  out.breakdown = integral.parts.back();
  out.total_uj = to_uj(out.joules);
  out.idle_uj = to_uj(out.breakdown.idle);
  out.cpu_uj = to_uj(out.breakdown.cpu);
  out.gpu_uj = to_uj(out.breakdown.gpu);
  out.nic_uj = to_uj(out.breakdown.nic);
  out.dram_uj = to_uj(out.breakdown.dram);

  // Phase boundaries: the running max of completion times per ascending
  // phase id (a fully-overlapped phase gets a zero-width slice).  The
  // final boundary is the makespan, so the cuts end at the totals.
  std::map<int, SimTime> phase_end;
  for (const OpExec& op : trace.ops) {
    SimTime& end = phase_end[op.phase];
    end = std::max(end, op.complete);
  }
  if (phase_end.empty()) phase_end[0] = trace.stats.makespan;

  // Telescoped fixed-point cuts: c_p = llround(prefix(T_p) * 1e6) is
  // monotone in p, the per-phase share is c_p - c_{p-1}, and the sum
  // telescopes to the total with zero residual in integer arithmetic.
  std::array<std::int64_t, kColumns> prev{};
  const std::array<std::int64_t, kColumns> totals = {
      out.total_uj, out.idle_uj, out.cpu_uj,
      out.gpu_uj,   out.nic_uj,  out.dram_uj};
  SimTime running = 0;
  for (auto it = phase_end.begin(); it != phase_end.end(); ++it) {
    running = std::max(running, it->second);
    const bool last = std::next(it) == phase_end.end();
    PhaseEnergy pe;
    pe.phase = it->first;
    pe.end = last ? trace.stats.makespan : running;
    std::array<std::int64_t, kColumns> cut;
    if (last) {
      cut = totals;
    } else {
      const double t = to_seconds(pe.end);
      for (std::size_t c = 0; c < kColumns; ++c) {
        cut[c] = to_uj(prefix_at(tl, integral, c, t));
      }
    }
    pe.uj = cut[0] - prev[0];
    pe.idle_uj = cut[1] - prev[1];
    pe.cpu_uj = cut[2] - prev[2];
    pe.gpu_uj = cut[3] - prev[3];
    pe.nic_uj = cut[4] - prev[4];
    pe.dram_uj = cut[5] - prev[5];
    SOC_CHECK(pe.uj >= 0, "energy attribution: non-monotone phase cut");
    prev = cut;
    out.phases.push_back(pe);
  }

  // Per-rank shares: shared draw (board idle + host overhead + NIC)
  // splits evenly; active components follow each rank's share of the
  // matching busy time / traffic.  Largest-remainder rounding makes the
  // integer partition exact.
  const std::size_t ranks = trace.stats.ranks.size();
  if (ranks > 0) {
    double cpu_total = 0.0, gpu_total = 0.0, dram_total = 0.0;
    for (const sim::RankStats& r : trace.stats.ranks) {
      cpu_total += static_cast<double>(r.cpu_busy);
      gpu_total += static_cast<double>(r.gpu_busy);
      dram_total += static_cast<double>(r.dram_bytes);
    }
    const double shared = out.breakdown.idle + out.breakdown.nic;
    std::vector<double> weight(ranks, 0.0);
    for (std::size_t r = 0; r < ranks; ++r) {
      const sim::RankStats& rs = trace.stats.ranks[r];
      const double even = 1.0 / static_cast<double>(ranks);
      weight[r] =
          shared * even +
          out.breakdown.cpu * (cpu_total > 0.0
                                   ? static_cast<double>(rs.cpu_busy) /
                                         cpu_total
                                   : even) +
          out.breakdown.gpu * (gpu_total > 0.0
                                   ? static_cast<double>(rs.gpu_busy) /
                                         gpu_total
                                   : even) +
          out.breakdown.dram * (dram_total > 0.0
                                    ? static_cast<double>(rs.dram_bytes) /
                                          dram_total
                                    : even);
    }
    out.rank_uj = apportion(weight, out.total_uj);
  }
  return out;
}

std::string energy_json(const EnergyAttribution& energy) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "soccluster-energy-attribution/v1");
  w.field("joules", energy.joules);
  w.field("total_uj", energy.total_uj);
  w.newline();
  w.key("components_uj");
  w.begin_object();
  w.field("idle", energy.idle_uj);
  w.field("cpu", energy.cpu_uj);
  w.field("gpu", energy.gpu_uj);
  w.field("nic", energy.nic_uj);
  w.field("dram", energy.dram_uj);
  w.end_object();
  w.newline();
  w.key("phases");
  w.begin_array();
  for (const PhaseEnergy& p : energy.phases) {
    w.newline();
    w.begin_object();
    w.field("phase", p.phase);
    w.field("end_ns", p.end);
    w.field("uj", p.uj);
    w.field("idle_uj", p.idle_uj);
    w.field("cpu_uj", p.cpu_uj);
    w.field("gpu_uj", p.gpu_uj);
    w.field("nic_uj", p.nic_uj);
    w.field("dram_uj", p.dram_uj);
    w.end_object();
  }
  w.end_array();
  w.newline();
  w.key("rank_uj");
  w.begin_array();
  for (const std::int64_t uj : energy.rank_uj) w.value(uj);
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

}  // namespace soc::prof
