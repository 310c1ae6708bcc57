// TLB simulator: a small fully-/set-associative translation cache with a
// fixed page-walk penalty.  Large-working-set codes (cg's gathers, ep's
// tables) pay translation misses on top of cache misses; server SoCs and
// mobile SoCs differ in TLB reach, which the core model folds into the
// CPI stack.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace soc::arch {

struct TlbConfig {
  int entries = 48;          ///< Total translation entries.
  int associativity = 48;    ///< Fully associative by default.
  Bytes page_size = 4 * kKiB;

  bool operator==(const TlbConfig&) const = default;
};

struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;

  double miss_ratio() const {
    return accesses > 0 ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
  }
};

/// LRU TLB over virtual page numbers.
class Tlb {
 public:
  explicit Tlb(TlbConfig config);

  /// Translates `address`; returns true on TLB hit.
  bool access(std::uint64_t address);

  const TlbStats& stats() const { return stats_; }
  void reset_stats() { stats_ = TlbStats{}; }
  const TlbConfig& config() const { return config_; }

 private:
  struct Entry {
    std::uint64_t vpn = 0;
    /// Larger = more recently used; 0 marks an entry never filled (ticks
    /// start at 1), which the least-recently-used scan picks first.
    std::uint64_t lru = 0;
  };

  TlbConfig config_;
  std::uint64_t set_mask_ = 0;  ///< sets - 1 (the set count is a power of 2).
  std::size_t assoc_ = 1;
  int page_shift_ = 12;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  TlbStats stats_;
};

}  // namespace soc::arch
