// Shared-DRAM model.
//
// Mobile-class SoCs share one LPDDR channel between CPU and GPU (the TX1's
// defining property); discrete GPUs have dedicated GDDR5 plus a PCIe link
// to host memory.  This module captures the achievable bandwidths seen by
// each agent and the memcpy-style transfer costs used by copy ops.
#pragma once

#include <string>

#include "common/units.h"

namespace soc::mem {

struct DramConfig {
  std::string name = "lpddr4";
  /// Peak bandwidth achievable by CPU cores (stream-measured, §III-A).
  double cpu_bandwidth = 14.7e9;
  /// Peak bandwidth achievable by the GPU.
  double gpu_bandwidth = 20.0e9;
  /// memcpy bandwidth for host<->device copies.  On a unified-memory SoC
  /// this is a DRAM-to-DRAM copy; on a discrete GPU it is the PCIe link.
  double copy_bandwidth = 10.0e9;
  /// Fixed software overhead per explicit copy call.
  SimTime copy_call_overhead = 10 * kMicrosecond;

  Bytes capacity = 4 * kGiB;

  bool operator==(const DramConfig&) const = default;
};

/// Duration of an explicit host<->device copy of `bytes`.
SimTime copy_duration(const DramConfig& dram, Bytes bytes);

}  // namespace soc::mem
