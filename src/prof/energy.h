// Critical-path profiler, stage 4: energy attribution.
//
// attribute_energy() extends the critical-path attribution to joules:
// it cuts the run's power::energy_integral, the running integral whose
// last entry is measure_energy's total, so the attribution total
// reproduces EnergyReport.joules bit-exactly.  Per-phase and per-rank
// shares follow the repo's fixed-point artifact convention (integer
// microjoules, like the ns critical-path document): phase shares are
// telescoped differences of llround'ed prefix values and rank shares a
// largest-remainder apportionment, so both partitions sum to
// llround(joules * 1e6) with zero residual — exactly, in integer
// arithmetic, not "up to rounding".
//
// A DVFS what-if is a run of its own at systems::with_dvfs(node, f), and
// a power cap is power::apply_power_cap over the measured run's
// power::power_timeline; neither needs the trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "power/power_model.h"
#include "prof/profiler.h"

namespace soc::prof {

/// One phase's exact share of the run's energy, integer microjoules.
struct PhaseEnergy {
  int phase = 0;
  SimTime end = 0;  ///< Phase boundary: running max of op completions.
  std::int64_t uj = 0;       ///< Σ over phases == EnergyAttribution::total_uj.
  std::int64_t idle_uj = 0;  ///< Per-component shares; each column sums
  std::int64_t cpu_uj = 0;   ///< exactly to the matching *_uj total below.
  std::int64_t gpu_uj = 0;
  std::int64_t nic_uj = 0;
  std::int64_t dram_uj = 0;

  bool operator==(const PhaseEnergy&) const = default;
};

/// Zero-residual energy decomposition of one recorded run.
struct EnergyAttribution {
  /// Bit-equal to power::measure_energy(...).joules for the same run —
  /// both read the last entry of power::energy_integral.
  double joules = 0.0;
  /// Bit-equal per component, same argument.
  power::EnergyBreakdown breakdown;

  /// llround(joules * 1e6): the fixed-point total both partitions below
  /// sum to exactly.
  std::int64_t total_uj = 0;
  std::int64_t idle_uj = 0;
  std::int64_t cpu_uj = 0;
  std::int64_t gpu_uj = 0;
  std::int64_t nic_uj = 0;
  std::int64_t dram_uj = 0;

  /// Ascending phase id; Σ uj == total_uj (telescoped, exact).
  std::vector<PhaseEnergy> phases;
  /// Per-rank model shares (shared idle/NIC draw split evenly, active
  /// components by busy-time/traffic share), largest-remainder rounded:
  /// Σ == total_uj exactly.
  std::vector<std::int64_t> rank_uj;

  bool operator==(const EnergyAttribution&) const = default;
};

/// Charges each phase and rank its CPU/GPU/NIC/DRAM/idle energy.  The
/// node power config and core count must match the metered run's
/// (cluster::run passes its own).
EnergyAttribution attribute_energy(const RunTrace& trace,
                                   const power::NodePowerConfig& node,
                                   int cores_per_node);

/// The deterministic "soccluster-energy-attribution/v1" JSON document:
/// fixed-point microjoule totals, per-phase shares, and per-rank shares
/// (the zero-residual partitions), plus the bit-exact double totals.
std::string energy_json(const EnergyAttribution& energy);

}  // namespace soc::prof
