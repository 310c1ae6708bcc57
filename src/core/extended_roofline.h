// The paper's primary analytical contribution: the Roofline extension for
// integrated-GPGPU clusters (§III-B.3).
//
// Two distinct data-transfer channels feed each node's GPU: main-memory
// traffic (DRAM → GPU) and network traffic (other nodes → NIC → DRAM).
// The extension keeps the classic operational-intensity ceiling and adds
// a network-intensity ceiling:
//
//   operational intensity  OI = FLOPs / DRAM bytes          (Eq. 1)
//   network intensity      NI = FLOPs / NIC bytes           (Eq. 2)
//   attainable = min(peak, OI × mem_bw, NI × net_bw)        (Eq. 3)
//
// All quantities are per node: peak is one node's GPU capacity, mem_bw
// the GPU's achievable DRAM bandwidth, net_bw the NIC's achievable rate.
// The energy extension (EnergyRoofline below) re-derives the ceiling in
// GFLOPS/W: at any (OI, NI) operating point the component power model
// (power::NodePowerConfig) predicts the sustained node draw needed to run
// at the attainable rate — GPU utilization, the DRAM and NIC rates the
// intensities imply — and the energy ceiling is attainable / watts, the
// perf-per-watt analogue of Eq. 3 (cf. arXiv 1809.09206, 2009.05257).
#pragma once

#include <string>

#include "power/power_model.h"
#include "sim/stats.h"

namespace soc::core {

/// Which ceiling binds the attainable performance.
enum class RooflineLimit { kCompute, kOperational, kNetwork };

const char* limit_name(RooflineLimit limit);

struct ExtendedRoofline {
  double peak_flops = 0.0;        ///< Per-node GPU compute ceiling.
  double memory_bandwidth = 0.0;  ///< Per-node DRAM→GPU bytes/s.
  double network_bandwidth = 0.0; ///< Per-node achievable NIC bytes/s.

  /// Eq. 3: attainable per-node FLOP/s at the given intensities.
  double attainable(double oi, double ni) const;

  /// The ceiling that limits performance at (oi, ni).  When compute is the
  /// binding term the workload has outgrown both transfer channels.
  RooflineLimit limit(double oi, double ni) const;

  /// The paper's Table II "limit" column: which *intensity* (operational
  /// or network) bounds the theoretical peak the most, ignoring the
  /// compute ceiling.
  RooflineLimit limiting_intensity(double oi, double ni) const;
};

/// Measured intensities and roofline position of one run (per node).
struct RooflineMeasurement {
  std::string benchmark;
  double operational_intensity = 0.0;  ///< FLOP/DRAM-byte (Eq. 1).
  double network_intensity = 0.0;      ///< FLOP/NIC-byte (Eq. 2).
  double achieved_flops = 0.0;         ///< Per-node achieved FLOP/s.
  double attainable_flops = 0.0;       ///< Model ceiling at (OI, NI).
  double percent_of_peak = 0.0;        ///< achieved / attainable × 100.
  RooflineLimit limit = RooflineLimit::kOperational;
  /// Table II semantics: operational vs network only.
  RooflineLimit limiting_intensity = RooflineLimit::kOperational;
};

/// Computes Eqs. 1–3 from a run.  GPU-side traffic is used for OI (the
/// extension is defined for the GPGPU work); the paper's "FLOPS
/// throughput" is the whole-cluster rate divided by the node count.
RooflineMeasurement measure_roofline(const ExtendedRoofline& model,
                                     const sim::RunStats& stats, int nodes,
                                     const std::string& benchmark);

/// Energy-extended roofline: the perf-per-watt ceiling at an (OI, NI)
/// operating point, from the same component power model the meter uses.
struct EnergyRoofline {
  ExtendedRoofline roofline;
  power::NodePowerConfig power;

  /// Model watts one node sustains while running at attainable(oi, ni):
  /// board idle + host overhead + one driving core + GPU at its implied
  /// utilization + the DRAM and NIC rates the intensities pin down.
  double sustained_watts(double oi, double ni) const;

  /// The energy ceiling: attainable(oi, ni) / sustained_watts(oi, ni),
  /// in GFLOPS/W per node.
  double attainable_gflops_per_watt(double oi, double ni) const;
};

/// Measured perf-per-watt position of one run against the energy ceiling.
struct EnergyRooflineMeasurement {
  RooflineMeasurement roofline;
  double achieved_gflops_per_watt = 0.0;    ///< Cluster GFLOPs over watts.
  double attainable_gflops_per_watt = 0.0;  ///< Ceiling at (OI, NI).
  double sustained_watts = 0.0;             ///< Model node draw at (OI, NI).
  double percent_of_ceiling = 0.0;          ///< achieved / ceiling x 100.
};

/// Joins measure_roofline with the metered energy: where the run sits on
/// the GFLOPS/W roofline.  `energy` must be the report for `stats`.
EnergyRooflineMeasurement measure_energy_roofline(
    const EnergyRoofline& model, const sim::RunStats& stats,
    const power::EnergyReport& energy, int nodes,
    const std::string& benchmark);

}  // namespace soc::core
