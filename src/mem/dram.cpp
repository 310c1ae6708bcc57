#include "mem/dram.h"

#include "common/error.h"

namespace soc::mem {

SimTime copy_duration(const DramConfig& dram, Bytes bytes) {
  SOC_CHECK(bytes >= 0, "negative copy size");
  if (bytes == 0) return dram.copy_call_overhead;
  return dram.copy_call_overhead + transfer_time(bytes, dram.copy_bandwidth);
}

}  // namespace soc::mem
