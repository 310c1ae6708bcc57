#include "arch/pmu.h"

#include <sstream>

namespace soc::arch {

const char* pmu_event_name(PmuEvent e) {
  switch (e) {
    case PmuEvent::kCpuCycles: return "CPU_CYCLES";
    case PmuEvent::kInstRetired: return "INST_RETIRED";
    case PmuEvent::kInstSpec: return "INST_SPEC";
    case PmuEvent::kBrRetired: return "BR_RETIRED";
    case PmuEvent::kBrMisPred: return "BR_MIS_PRED";
    case PmuEvent::kL1dCache: return "L1D_CACHE";
    case PmuEvent::kL1dCacheRefill: return "L1D_CACHE_REFILL";
    case PmuEvent::kL2dCache: return "L2D_CACHE";
    case PmuEvent::kL2dCacheRefill: return "L2D_CACHE_REFILL";
    case PmuEvent::kMemAccess: return "MEM_ACCESS";
    case PmuEvent::kStallFrontend: return "STALL_FRONTEND";
    case PmuEvent::kStallBackend: return "STALL_BACKEND";
    case PmuEvent::kCount: break;
  }
  return "UNKNOWN";
}

CounterSet& CounterSet::operator+=(const CounterSet& rhs) {
  for (std::size_t i = 0; i < kPmuEventCount; ++i) values_[i] += rhs.values_[i];
  return *this;
}

CounterSet CounterSet::scaled(double s) const {
  CounterSet out = *this;
  for (double& v : out.values_) v *= s;
  return out;
}

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

double CounterSet::ipc() const {
  return ratio((*this)[PmuEvent::kInstRetired], (*this)[PmuEvent::kCpuCycles]);
}

double CounterSet::branch_misprediction_ratio() const {
  return ratio((*this)[PmuEvent::kBrMisPred], (*this)[PmuEvent::kBrRetired]);
}

double CounterSet::l1d_miss_ratio() const {
  return ratio((*this)[PmuEvent::kL1dCacheRefill], (*this)[PmuEvent::kL1dCache]);
}

double CounterSet::l2d_miss_ratio() const {
  return ratio((*this)[PmuEvent::kL2dCacheRefill], (*this)[PmuEvent::kL2dCache]);
}

std::string CounterSet::str() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < kPmuEventCount; ++i) {
    os << pmu_event_name(static_cast<PmuEvent>(i)) << "=" << values_[i];
    if (i + 1 < kPmuEventCount) os << " ";
  }
  return os.str();
}

}  // namespace soc::arch
