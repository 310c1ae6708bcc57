// Set-associative cache simulator with LRU replacement.
//
// Used for both CPU L1/L2 characterization (Section IV-A: the ThunderX's
// smaller effective L2 per thread is one of the two bottlenecks the paper
// identifies) and the GPU L2 (Table III: zero-copy bypasses it entirely).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace soc::arch {

struct CacheConfig {
  Bytes size = 32 * kKiB;
  int associativity = 4;
  Bytes line_size = 64;
  /// Next-N-line prefetcher: on a miss, also allocate the following N
  /// lines (0 disables).  Models the A57's L1 stride prefetcher; the
  /// prefetcher ablation bench quantifies its effect on the streams.
  int prefetch_lines = 0;

  /// Number of sets implied by the configuration.
  int sets() const;

  bool operator==(const CacheConfig&) const = default;
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t prefetches = 0;  ///< Lines allocated speculatively.

  double miss_ratio() const {
    return accesses > 0 ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
  }
};

/// One level of cache.  `access` returns true on hit.  The simulator tracks
/// tags only (no data), which is all the characterization needs.
class Cache {
 public:
  explicit Cache(CacheConfig config);

  /// Looks up `address`; allocates on miss.  Returns true on hit.
  bool access(std::uint64_t address);

  /// Looks up without allocating (models uncached/bypass probes).
  bool probe(std::uint64_t address) const;

  void reset_stats() { stats_ = CacheStats{}; }
  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }

 private:
  struct Way {
    std::uint64_t tag = 0;  ///< The line number (address >> line shift).
    /// Larger = more recently used.  Ticks start at 1, so 0 marks a way
    /// that has never been filled, and the least-recently-used scan picks
    /// such a way before any valid one.
    std::uint64_t lru = 0;
  };

  /// The resident way holding line `tag`, or nullptr; `victim` is set to
  /// the set's least recently used way.
  Way* find(std::uint64_t tag, Way*& victim);
  /// Allocates a line without counting an access (prefetch path).
  void allocate(std::uint64_t address);

  CacheConfig config_;
  int line_shift_ = 6;
  std::uint64_t set_mask_ = 0;  ///< sets - 1 (the set count is a power of 2).
  std::size_t assoc_ = 1;
  std::vector<Way> ways_;  ///< sets × associativity, row-major.
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

/// Two-level hierarchy: L1 backed by L2.  Accesses that miss L1 go to L2.
class CacheHierarchy {
 public:
  CacheHierarchy(CacheConfig l1, CacheConfig l2);

  /// Result levels: 1 = L1 hit, 2 = L2 hit, 3 = memory.
  int access(std::uint64_t address);

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }
  void reset_stats();

 private:
  Cache l1_;
  Cache l2_;
};

}  // namespace soc::arch
