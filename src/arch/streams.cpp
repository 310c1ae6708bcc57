#include "arch/streams.h"

#include <algorithm>

#include "common/error.h"

namespace soc::arch {

std::uint64_t WorkloadProfile::seed() const {
  // FNV-1a over the name: stable across runs and platforms.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

// Region layout: hot set at 0, streamed/working set above it.
constexpr std::uint64_t kHotBase = 0;
constexpr std::uint64_t kWorkingSetBase = 1ull << 30;  // separate the regions

MemoryStream::MemoryStream(const WorkloadProfile& profile)
    : rng_(Rng(profile.seed()).split(1)),
      hot_span_(static_cast<std::uint64_t>(profile.hot_set)),
      ws_span_(static_cast<std::uint64_t>(profile.working_set)),
      stride_(static_cast<std::uint64_t>(profile.stream_stride)),
      store_share_(profile.store_fraction /
                   std::max(profile.load_fraction + profile.store_fraction,
                            1e-9)),
      hot_fraction_(profile.hot_fraction),
      hot_or_stream_(profile.hot_fraction + profile.stream_fraction) {
  SOC_CHECK(profile.working_set > 0 && profile.hot_set > 0,
            "profile regions must be non-empty");
  SOC_CHECK(profile.hot_fraction + profile.stream_fraction <= 1.0 + 1e-9,
            "access fractions exceed 1");
}

MemoryAccess MemoryStream::next() {
  MemoryAccess a;
  a.is_store = rng_.next_bool(store_share_);
  const double pick = rng_.next_double();
  if (pick < hot_fraction_) {
    a.address = kHotBase + rng_.next_below(hot_span_);
  } else if (pick < hot_or_stream_) {
    // Strided walk through the working set, wrapping at its end.
    a.address = kWorkingSetBase + stream_cursor_;
    stream_cursor_ = (stream_cursor_ + stride_) % ws_span_;
  } else {
    a.address = kWorkingSetBase + rng_.next_below(ws_span_);
  }
  return a;
}

BranchStream::BranchStream(const WorkloadProfile& profile)
    : rng_(Rng(profile.seed()).split(2)),
      loop_bias_(profile.loop_bias),
      random_bias_(profile.random_bias),
      period_(std::max(profile.pattern_period, 2)) {
  SOC_CHECK(profile.static_branches > 0, "need at least one branch site");
  SOC_CHECK(profile.loop_fraction + profile.pattern_fraction <= 1.0 + 1e-9,
            "branch fractions exceed 1");
  // Assign each static site a class and (for patterned sites) a phase.
  const auto sites = static_cast<std::size_t>(profile.static_branches);
  cls_.resize(sites);
  phase_.assign(sites, 0);
  pcs_.resize(sites);
  visits_.assign(sites, 0);
  for (std::size_t s = 0; s < sites; ++s) {
    const double pick = rng_.next_double();
    if (pick < profile.loop_fraction) {
      cls_[s] = Cls::kLoop;
    } else if (pick < profile.loop_fraction + profile.pattern_fraction) {
      cls_[s] = Cls::kPattern;
      phase_[s] = static_cast<int>(rng_.next_below(
          static_cast<std::uint64_t>(std::max(profile.pattern_period, 1))));
    } else {
      cls_[s] = Cls::kRandom;
    }
    // Spread pcs so different sites alias differently in small tables.
    pcs_[s] = (static_cast<std::uint64_t>(s) * 2654435761ull) >> 2;
  }
}

// Branches execute in bursts per site (a loop nest re-executes the same
// branch many times before moving on).  Bursts are what let a global-
// history predictor learn per-site periodic patterns; visiting sites in
// a random interleave would reduce every predictor to bimodal accuracy.
BranchEvent BranchStream::next() {
  if (burst_left_ == 0) {
    site_ = static_cast<std::size_t>(rng_.next_below(pcs_.size()));
    burst_left_ = 48 + rng_.next_below(96);
  }
  --burst_left_;
  BranchEvent e;
  e.pc = pcs_[site_];
  switch (cls_[site_]) {
    case Cls::kLoop:
      e.taken = rng_.next_bool(loop_bias_);
      break;
    case Cls::kPattern:
      // Taken except once per period — the classic loop-exit pattern
      // a history predictor learns and a bimodal one partially misses.
      e.taken = ((visits_[site_] + phase_[site_]) % period_) != 0;
      ++visits_[site_];
      break;
    case Cls::kRandom:
      e.taken = rng_.next_bool(random_bias_);
      break;
  }
  return e;
}

std::vector<MemoryAccess> generate_memory_stream(const WorkloadProfile& profile,
                                                 std::size_t count) {
  MemoryStream stream(profile);
  std::vector<MemoryAccess> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(stream.next());
  return out;
}

std::vector<BranchEvent> generate_branch_stream(const WorkloadProfile& profile,
                                                std::size_t count) {
  BranchStream stream(profile);
  std::vector<BranchEvent> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(stream.next());
  return out;
}

}  // namespace soc::arch
