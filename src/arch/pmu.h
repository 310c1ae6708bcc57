// ARMv8 PMUv3-style performance counter set.
//
// The paper's cross-system analysis deliberately restricts itself to the
// twelve architecturally-defined PMUv3 events available on both the
// Cortex-A57 and the ThunderX (footnote 3), plus derived metrics (miss
// ratios, IPC).  We mirror that: CounterSet carries the raw events; the
// derived metrics are computed on demand.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace soc::arch {

/// Raw PMUv3-style events collected by the core model.
enum class PmuEvent : std::uint8_t {
  kCpuCycles = 0,
  kInstRetired,
  kInstSpec,        ///< Speculatively executed instructions.
  kBrRetired,
  kBrMisPred,
  kL1dCache,        ///< L1 data cache accesses.
  kL1dCacheRefill,  ///< L1 data cache misses.
  kL2dCache,        ///< L2 cache accesses.
  kL2dCacheRefill,  ///< L2 cache misses.
  kMemAccess,       ///< Memory accesses issued.
  kStallFrontend,   ///< Cycles stalled for instruction supply.
  kStallBackend,    ///< Cycles stalled for data supply.
  kCount,
};

inline constexpr std::size_t kPmuEventCount =
    static_cast<std::size_t>(PmuEvent::kCount);

/// Human-readable PMUv3-style event name.
const char* pmu_event_name(PmuEvent e);

/// A sampled set of the twelve raw counters.
class CounterSet {
 public:
  double& operator[](PmuEvent e) {
    return values_[static_cast<std::size_t>(e)];
  }
  double operator[](PmuEvent e) const {
    return values_[static_cast<std::size_t>(e)];
  }

  CounterSet& operator+=(const CounterSet& rhs);
  CounterSet scaled(double s) const;

  // -- Derived metrics (the paper's "additional metrics") --
  double ipc() const;
  double branch_misprediction_ratio() const;
  double l1d_miss_ratio() const;
  /// The paper's LD_MISS_RATIO: L2 refill per L2 access.
  double l2d_miss_ratio() const;

  std::string str() const;

 private:
  std::array<double, kPmuEventCount> values_{};
};

}  // namespace soc::arch
