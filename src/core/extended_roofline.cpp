#include "core/extended_roofline.h"

#include <algorithm>

#include "common/error.h"

namespace soc::core {

const char* limit_name(RooflineLimit limit) {
  switch (limit) {
    case RooflineLimit::kCompute: return "compute";
    case RooflineLimit::kOperational: return "operational";
    case RooflineLimit::kNetwork: return "network";
  }
  return "unknown";
}

double ExtendedRoofline::attainable(double oi, double ni) const {
  SOC_CHECK(oi > 0.0 && ni > 0.0, "intensities must be positive");
  return std::min({peak_flops, oi * memory_bandwidth,
                   ni * network_bandwidth});
}

RooflineLimit ExtendedRoofline::limit(double oi, double ni) const {
  const double mem_ceiling = oi * memory_bandwidth;
  const double net_ceiling = ni * network_bandwidth;
  if (peak_flops <= mem_ceiling && peak_flops <= net_ceiling) {
    return RooflineLimit::kCompute;
  }
  return mem_ceiling <= net_ceiling ? RooflineLimit::kOperational
                                    : RooflineLimit::kNetwork;
}

RooflineLimit ExtendedRoofline::limiting_intensity(double oi,
                                                   double ni) const {
  return oi * memory_bandwidth <= ni * network_bandwidth
             ? RooflineLimit::kOperational
             : RooflineLimit::kNetwork;
}

RooflineMeasurement measure_roofline(const ExtendedRoofline& model,
                                     const sim::RunStats& stats, int nodes,
                                     const std::string& benchmark) {
  SOC_CHECK(nodes > 0, "need at least one node");
  RooflineMeasurement m;
  m.benchmark = benchmark;

  // Intensities are workload properties (Eqs. 1 and 2): FLOPs over the
  // bytes each channel moved.  They do not depend on the network choice —
  // the paper stresses this invariance.
  const double gpu_flops = stats.total_gpu_flops > 0.0 ? stats.total_gpu_flops
                                                       : stats.total_flops;
  const double dram = static_cast<double>(
      stats.total_gpu_dram_bytes > 0 ? stats.total_gpu_dram_bytes
                                     : stats.total_dram_bytes);
  const double net = static_cast<double>(stats.total_net_bytes);
  SOC_CHECK(dram > 0.0, "no DRAM traffic recorded");
  m.operational_intensity = gpu_flops / dram;
  // Workloads with no inter-node traffic (alexnet/googlenet) have an
  // effectively infinite network intensity; clamp for reporting.
  m.network_intensity = net > 0.0 ? gpu_flops / net : 1e9;

  m.achieved_flops = gpu_flops / stats.seconds() / static_cast<double>(nodes);
  m.attainable_flops =
      model.attainable(m.operational_intensity, m.network_intensity);
  m.percent_of_peak = m.attainable_flops > 0.0
                          ? 100.0 * m.achieved_flops / m.attainable_flops
                          : 0.0;
  m.limit = model.limit(m.operational_intensity, m.network_intensity);
  m.limiting_intensity = model.limiting_intensity(m.operational_intensity,
                                                  m.network_intensity);
  return m;
}

double EnergyRoofline::sustained_watts(double oi, double ni) const {
  const double f = roofline.attainable(oi, ni);
  // Only +, *, / and min: the expression is deterministic across builds.
  const double gpu_util =
      roofline.peak_flops > 0.0 ? std::min(f / roofline.peak_flops, 1.0) : 0.0;
  // OI pins the DRAM rate at the operating point (bytes/s = f / OI) and
  // NI the NIC rate; each feeds the same linear component model the
  // meter integrates.
  const double dram_gbps = f / oi / 1e9;
  const double nic_util =
      roofline.network_bandwidth > 0.0
          ? std::min(f / ni / roofline.network_bandwidth, 1.0)
          : 0.0;
  return power.idle_w + power.host_overhead_w + power.cpu_core_active_w +
         gpu_util * power.gpu_active_w + dram_gbps * power.dram_w_per_gbps +
         power.nic_idle_w + nic_util * power.nic_active_w;
}

double EnergyRoofline::attainable_gflops_per_watt(double oi, double ni) const {
  const double watts = sustained_watts(oi, ni);
  if (watts <= 0.0) return 0.0;
  return roofline.attainable(oi, ni) / 1e9 / watts;
}

EnergyRooflineMeasurement measure_energy_roofline(
    const EnergyRoofline& model, const sim::RunStats& stats,
    const power::EnergyReport& energy, int nodes,
    const std::string& benchmark) {
  EnergyRooflineMeasurement m;
  m.roofline = measure_roofline(model.roofline, stats, nodes, benchmark);
  // Per-node achieved rate over per-node average draw == the cluster's
  // GFLOPS/W, the wall-socket number the paper reports.
  const double node_watts = energy.average_watts / static_cast<double>(nodes);
  m.achieved_gflops_per_watt =
      node_watts > 0.0 ? m.roofline.achieved_flops / 1e9 / node_watts : 0.0;
  m.sustained_watts = model.sustained_watts(m.roofline.operational_intensity,
                                            m.roofline.network_intensity);
  m.attainable_gflops_per_watt = model.attainable_gflops_per_watt(
      m.roofline.operational_intensity, m.roofline.network_intensity);
  m.percent_of_ceiling =
      m.attainable_gflops_per_watt > 0.0
          ? 100.0 * m.achieved_gflops_per_watt / m.attainable_gflops_per_watt
          : 0.0;
  return m;
}

}  // namespace soc::core
