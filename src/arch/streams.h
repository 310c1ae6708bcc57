// Deterministic synthetic instruction streams.
//
// Expands a WorkloadProfile into memory-address and branch-outcome events.
// The same profile always produces the same streams (seeded by the profile
// name), so characterization results are reproducible and comparable
// across machine models — exactly what the paper's cross-system PMU
// methodology requires.
//
// MemoryStream and BranchStream generate one event per next() call, so
// characterize() feeds each event to the cache, TLB or predictor as it is
// made and holds no stream in memory.  Each has its own split of the
// profile's seed, so the events do not depend on how the two interleave.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/profile.h"
#include "common/rng.h"

namespace soc::arch {

struct MemoryAccess {
  std::uint64_t address = 0;
  bool is_store = false;
};

struct BranchEvent {
  std::uint64_t pc = 0;
  bool taken = false;
};

/// The profile's memory accesses, following its locality mix.
class MemoryStream {
 public:
  explicit MemoryStream(const WorkloadProfile& profile);
  MemoryAccess next();

 private:
  Rng rng_;
  std::uint64_t hot_span_;
  std::uint64_t ws_span_;
  std::uint64_t stride_;
  double store_share_;
  double hot_fraction_;
  double hot_or_stream_;  ///< hot_fraction + stream_fraction.
  std::uint64_t stream_cursor_ = 0;
};

/// The profile's branch events, following its branch mix: bursts of
/// 48-143 executions of one site, as a loop nest re-executes a branch.
class BranchStream {
 public:
  explicit BranchStream(const WorkloadProfile& profile);
  BranchEvent next();

 private:
  enum class Cls : std::uint8_t { kLoop, kPattern, kRandom };

  Rng rng_;
  double loop_bias_;
  double random_bias_;
  int period_;  ///< Of patterned sites.
  // Per static site: class, pattern phase, pc and visit count.
  std::vector<Cls> cls_;
  std::vector<int> phase_;
  std::vector<std::uint64_t> pcs_;
  std::vector<int> visits_;
  std::size_t site_ = 0;        ///< The current burst's site.
  std::size_t burst_left_ = 0;  ///< Events left in the current burst.
};

/// The first `count` events of MemoryStream(profile).
std::vector<MemoryAccess> generate_memory_stream(const WorkloadProfile& profile,
                                                 std::size_t count);

/// The first `count` events of BranchStream(profile).
std::vector<BranchEvent> generate_branch_stream(const WorkloadProfile& profile,
                                                std::size_t count);

}  // namespace soc::arch
