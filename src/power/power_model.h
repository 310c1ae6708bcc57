// Node power model and energy metering.
//
// The paper measures whole-cluster power at the wall socket at 1 Hz and
// reports total energy and MFLOPS/W.  We rebuild that instrument: a
// per-node component model (idle + CPU + GPU + DRAM + NIC) integrated
// over the engine's busy-time timelines, sampled at the same 1 Hz.
//
// The binned PowerTimeline is also the substrate for the energy
// observability layer (src/prof/energy.*): the attribution pass and the
// DVFS/power-cap what-ifs re-integrate the same bins with the same
// floating-point operation sequence, so their totals reproduce
// measure_energy() bit-exactly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/stats.h"

namespace soc::power {

/// Component power of one node (watts).
struct NodePowerConfig {
  std::string name = "jetson-tx1";
  double idle_w = 3.5;           ///< Board at rest (no NIC add-on).
  double cpu_core_active_w = 1.6;  ///< Per fully-busy core.
  double gpu_active_w = 7.0;     ///< GPU at full utilization.
  double dram_w_per_gbps = 0.25; ///< DRAM power per GB/s of traffic.
  double nic_idle_w = 0.3;       ///< Installed NIC baseline.
  double nic_active_w = 0.7;     ///< Additional while transferring.
  /// Host "power tax": chassis/PSU/fans (significant for Xeon hosts).
  double host_overhead_w = 0.0;
  /// Voltage-frequency power curve for DVFS studies: active component
  /// power at relative frequency f multiplies by f^dvfs_power_exponent.
  /// Dynamic power ~ f.V^2 with V tracking roughly sqrt(f) over the
  /// usable range gives the exponent 2.5 (the bench/extension_dvfs.cpp
  /// model); idle, NIC, and DRAM-idle draw are frequency-independent.
  double dvfs_power_exponent = 2.5;

  bool operator==(const NodePowerConfig&) const = default;
};

/// Active-power multiplier at relative frequency `freq_scale` (1.0 at
/// the shipped clocks; exact identity there, so baseline what-ifs are
/// bit-exact round trips).
double dvfs_power_factor(const NodePowerConfig& node, double freq_scale);

/// Energy split by component (sums to `joules`).
struct EnergyBreakdown {
  double idle = 0.0;   ///< Board idle + host overhead.
  double cpu = 0.0;
  double gpu = 0.0;
  double nic = 0.0;    ///< NIC idle + active.
  double dram = 0.0;

  bool operator==(const EnergyBreakdown&) const = default;
};

/// One sampled run's energy accounting.
struct EnergyReport {
  double joules = 0.0;
  double average_watts = 0.0;
  double peak_watts = 0.0;
  double seconds = 0.0;
  EnergyBreakdown breakdown;
  /// Wall-socket style samples, one per second of simulated time.
  std::vector<double> samples_w;
  /// Per-component split of each 1 Hz sample (same indexing as
  /// `samples_w`; the components sum to the total sample).
  std::vector<EnergyBreakdown> samples_parts;

  /// Energy efficiency in MFLOPS/W given the run's FLOP count.
  double mflops_per_watt(double flops) const;
};

/// Binned whole-cluster power over one run: bin b covers
/// [b*bin_seconds, min((b+1)*bin_seconds, seconds)).  Shared between
/// measure_energy() and the prof energy-attribution/what-if passes so
/// every consumer integrates the identical bins.
struct PowerTimeline {
  double bin_seconds = 0.0;
  double seconds = 0.0;  ///< Run length; the last bin may be partial.
  std::vector<double> bin_watts;          ///< Total watts per bin.
  std::vector<EnergyBreakdown> bin_parts; ///< Component watts per bin.

  /// Width of bin b in seconds (matches the integration expression).
  double width(std::size_t b) const;
};

/// Builds the binned power timeline from a run's per-node busy
/// timelines.  All nodes share one NodePowerConfig (homogeneous
/// clusters, as in the paper).  Empty (zero bins) for zero-length runs.
PowerTimeline power_timeline(const sim::RunStats& stats,
                             const NodePowerConfig& node, int cores_per_node);

/// Integrates the power model over a run's per-node timelines.
EnergyReport measure_energy(const sim::RunStats& stats,
                            const NodePowerConfig& node, int cores_per_node);

/// One power-cap what-if: every bin whose sampled watts exceed the cap
/// is dilated so its *active* energy (everything above the
/// frequency-independent idle floor) completes at the capped rate, while
/// idle draw accrues over the stretched time.  Bins at or under the cap
/// pass through untouched, so a cap at or above peak_watts reproduces
/// the measured integral bit-exactly (and extra_seconds == 0).
struct CappedEnergy {
  EnergyReport energy;        ///< Re-integrated under the cap (no samples).
  double extra_seconds = 0.0; ///< Runtime added by dilation.
  std::size_t capped_bins = 0;
};

/// `nodes` is the cluster size; the idle floor per bin is the board +
/// host + NIC-idle draw.  Throws soc::UsageError when the cap does not
/// clear the idle floor (the run could never finish).
CappedEnergy apply_power_cap(const PowerTimeline& timeline,
                             const NodePowerConfig& node, int nodes,
                             double cap_w);

}  // namespace soc::power
