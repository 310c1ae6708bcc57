// Tests for arch/: cache and TLB simulators (checked against a naive LRU),
// branch predictors, synthetic streams, PMU counters, and the analytic
// core model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <vector>

#include "arch/branch.h"
#include "arch/cache.h"
#include "arch/core_model.h"
#include "arch/pmu.h"
#include "arch/profile.h"
#include "arch/streams.h"
#include "arch/tlb.h"
#include "common/error.h"
#include "common/rng.h"

namespace soc::arch {
namespace {

TEST(Cache, HitAfterFill) {
  Cache c(CacheConfig{4 * kKiB, 2, 64});
  EXPECT_FALSE(c.access(0x1000));  // cold miss
  EXPECT_TRUE(c.access(0x1000));   // now resident
  EXPECT_TRUE(c.access(0x1038));   // same line
  EXPECT_FALSE(c.access(0x1040));  // next line
}

TEST(Cache, StatsCountAccessesAndMisses) {
  Cache c(CacheConfig{4 * kKiB, 2, 64});
  c.access(0);
  c.access(0);
  c.access(64);
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 2u);
  EXPECT_NEAR(c.stats().miss_ratio(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  // 2-way set: three conflicting lines force one eviction.
  CacheConfig config{2 * 64 * 4, 2, 64};  // 4 sets × 2 ways
  Cache c(config);
  const std::uint64_t set_stride = 4 * 64;  // lines mapping to set 0
  c.access(0 * set_stride);
  c.access(1 * set_stride + 0);  // wait — same set needs stride of sets*line
  // Simpler: conflicting addresses differ by sets*line_size.
  Cache c2(config);
  c2.access(0);
  c2.access(256);   // same set (4 sets × 64 B = 256)
  c2.access(0);     // touch 0 again: 256 is now LRU
  c2.access(512);   // evicts 256
  EXPECT_TRUE(c2.access(0));
  EXPECT_FALSE(c2.access(256));
}

TEST(Cache, FullyAssociativeHoldsWorkingSet) {
  CacheConfig config{16 * 64, 16, 64};  // one set, 16 ways
  Cache c(config);
  for (int pass = 0; pass < 2; ++pass) {
    for (int line = 0; line < 16; ++line) {
      c.access(static_cast<std::uint64_t>(line) * 64);
    }
  }
  // Second pass must be all hits.
  EXPECT_EQ(c.stats().misses, 16u);
  EXPECT_EQ(c.stats().accesses, 32u);
}

TEST(Cache, ProbeDoesNotAllocate) {
  Cache c(CacheConfig{4 * kKiB, 2, 64});
  EXPECT_FALSE(c.probe(0x2000));
  EXPECT_FALSE(c.probe(0x2000));  // still not resident
  c.access(0x2000);
  EXPECT_TRUE(c.probe(0x2000));
}

TEST(Cache, RejectsNonPowerOfTwoGeometry) {
  EXPECT_THROW(Cache(CacheConfig{3 * kKiB, 2, 64}), Error);
  EXPECT_THROW(Cache(CacheConfig{4 * kKiB, 2, 48}), Error);
}

/// Set-associative LRU over block numbers, one std::list per set (most
/// recent first): the obvious model the Cache and Tlb simulators must
/// agree with hit for hit.
class NaiveLru {
 public:
  NaiveLru(std::size_t sets, std::size_t ways) : sets_(sets), ways_(ways) {}

  bool contains(std::uint64_t block) const {
    const std::list<std::uint64_t>& set = sets_[block % sets_.size()];
    return std::find(set.begin(), set.end(), block) != set.end();
  }

  /// A demand access: a hit moves the block to the front, a miss inserts
  /// it there and evicts the least recently used block of a full set.
  bool touch(std::uint64_t block) {
    std::list<std::uint64_t>& set = sets_[block % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), block);
    if (it != set.end()) {
      set.splice(set.begin(), set, it);
      return true;
    }
    insert(set, block);
    return false;
  }

  /// A prefetch: inserts an absent block, leaves a resident one in place.
  void fill(std::uint64_t block) {
    std::list<std::uint64_t>& set = sets_[block % sets_.size()];
    if (std::find(set.begin(), set.end(), block) == set.end()) {
      insert(set, block);
    }
  }

 private:
  void insert(std::list<std::uint64_t>& set, std::uint64_t block) {
    set.push_front(block);
    if (set.size() > ways_) set.pop_back();
  }

  std::vector<std::list<std::uint64_t>> sets_;
  std::size_t ways_;
};

class CacheLruProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheLruProperty, EveryAccessAndProbeMatchesNaiveLru) {
  // 4 sets x 4 ways of 64-byte lines over 64 distinct lines, so hits,
  // conflict evictions and prefetches into a neighbouring set all occur.
  // 100 fresh caches of 1000 operations each (100 k in all): lookups of
  // line 0, whose tag equals a never-filled way's, keep meeting empty ways.
  CacheConfig config{4 * 4 * 64, 4, 64};
  config.prefetch_lines = GetParam();
  Rng rng(0xC0FFEE + static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 100; ++round) {
    Cache cache(config);
    NaiveLru lru(4, 4);
    std::uint64_t misses = 0;
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t address = rng.next_below(64 * 64);
      const std::uint64_t line = address / 64;
      if (rng.next_below(4) == 0) {
        ASSERT_EQ(cache.probe(address), lru.contains(line))
            << "round " << round << ", probe " << i;
        continue;
      }
      const bool hit = lru.touch(line);
      ASSERT_EQ(cache.access(address), hit)
          << "round " << round << ", access " << i;
      if (hit) continue;
      ++misses;
      for (int n = 1; n <= config.prefetch_lines; ++n) {
        lru.fill(line + static_cast<std::uint64_t>(n));
      }
    }
    EXPECT_EQ(cache.stats().misses, misses);
    EXPECT_EQ(cache.stats().prefetches,
              misses * static_cast<std::uint64_t>(config.prefetch_lines));
    EXPECT_GT(misses, 0u);
    EXPECT_LT(misses, cache.stats().accesses);
  }
}

INSTANTIATE_TEST_SUITE_P(Prefetch, CacheLruProperty, ::testing::Values(0, 2));

TEST(Tlb, EveryAccessMatchesNaiveLru) {
  // Set-associative (4 sets x 4 ways) and fully associative (1 x 8), each
  // as 100 fresh TLBs of 1000 accesses over 48 pages.
  for (const TlbConfig config :
       {TlbConfig{16, 4, 4 * kKiB}, TlbConfig{8, 8, 4 * kKiB}}) {
    const auto sets =
        static_cast<std::size_t>(config.entries / config.associativity);
    Rng rng(0x7EB + static_cast<std::uint64_t>(config.entries));
    for (int round = 0; round < 100; ++round) {
      Tlb tlb(config);
      NaiveLru lru(sets, static_cast<std::size_t>(config.associativity));
      for (int i = 0; i < 1000; ++i) {
        const std::uint64_t address = rng.next_below(48 * 4 * kKiB);
        ASSERT_EQ(tlb.access(address), lru.touch(address / (4 * kKiB)))
            << config.entries << " entries, round " << round << ", access "
            << i;
      }
      EXPECT_GT(tlb.stats().misses, 0u);
      EXPECT_LT(tlb.stats().misses, tlb.stats().accesses);
    }
  }
}

TEST(CacheHierarchy, MissesCascade) {
  CacheHierarchy h(CacheConfig{1 * kKiB, 2, 64}, CacheConfig{8 * kKiB, 4, 64});
  EXPECT_EQ(h.access(0x100), 3);  // cold: misses both
  EXPECT_EQ(h.access(0x100), 1);  // L1 hit
  // Evict from L1 by filling its sets, then re-access: should hit L2.
  for (std::uint64_t a = 0x10000; a < 0x10000 + 4 * kKiB; a += 64) {
    h.access(a);
  }
  EXPECT_EQ(h.access(0x100), 2);
}

TEST(Branch, BimodalLearnsBias) {
  BimodalPredictor p(256);
  for (int i = 0; i < 100; ++i) p.record(0x40, true);
  p.reset_stats();
  for (int i = 0; i < 100; ++i) p.record(0x40, true);
  EXPECT_EQ(p.stats().mispredictions, 0u);
}

TEST(Branch, BimodalCannotLearnPeriodicPattern) {
  // Taken except every 6th: bimodal saturates taken and misses the exits.
  BimodalPredictor p(256);
  for (int i = 0; i < 600; ++i) p.record(0x40, i % 6 != 0);
  p.reset_stats();
  for (int i = 0; i < 600; ++i) p.record(0x40, i % 6 != 0);
  EXPECT_NEAR(p.stats().misprediction_ratio(), 1.0 / 6.0, 0.02);
}

TEST(Branch, GshareLearnsPeriodicPattern) {
  GsharePredictor p(4096, 10);
  for (int i = 0; i < 2000; ++i) p.record(0x40, i % 6 != 0);
  p.reset_stats();
  for (int i = 0; i < 2000; ++i) p.record(0x40, i % 6 != 0);
  EXPECT_LT(p.stats().misprediction_ratio(), 0.02);
}

TEST(Branch, TournamentAtLeastMatchesBimodalOnPattern) {
  TournamentPredictor t(4096, 10);
  BimodalPredictor b(4096);
  for (int i = 0; i < 4000; ++i) {
    const bool taken = i % 7 != 0;
    t.record(0x80, taken);
    b.record(0x80, taken);
  }
  EXPECT_LE(t.stats().mispredictions, b.stats().mispredictions);
}

TEST(Branch, FactoryCreatesAllKinds) {
  EXPECT_NE(make_predictor(PredictorKind::kBimodal, 256, 1), nullptr);
  EXPECT_NE(make_predictor(PredictorKind::kGshare, 256, 8), nullptr);
  EXPECT_NE(make_predictor(PredictorKind::kTournament, 256, 8), nullptr);
}

TEST(Branch, RejectsBadTableSize) {
  EXPECT_THROW(BimodalPredictor(100), Error);
  EXPECT_THROW(GsharePredictor(256, 0), Error);
}

TEST(Streams, MemoryStreamDeterministic) {
  WorkloadProfile p;
  p.name = "determinism-test";
  const auto a = generate_memory_stream(p, 1000);
  const auto b = generate_memory_stream(p, 1000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].address, b[i].address);
    EXPECT_EQ(a[i].is_store, b[i].is_store);
  }
}

TEST(Streams, DifferentProfilesDiffer) {
  WorkloadProfile p1;
  p1.name = "profile-one";
  WorkloadProfile p2;
  p2.name = "profile-two";
  const auto a = generate_memory_stream(p1, 100);
  const auto b = generate_memory_stream(p2, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].address != b[i].address;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Streams, StoreFractionRespected) {
  WorkloadProfile p;
  p.name = "stores";
  p.load_fraction = 0.30;
  p.store_fraction = 0.10;
  const auto events = generate_memory_stream(p, 50'000);
  const auto stores = std::count_if(events.begin(), events.end(),
                                    [](const MemoryAccess& a) {
                                      return a.is_store;
                                    });
  EXPECT_NEAR(static_cast<double>(stores) / events.size(), 0.25, 0.02);
}

TEST(Streams, BranchStreamCountAndDeterminism) {
  WorkloadProfile p;
  p.name = "branches";
  const auto a = generate_branch_stream(p, 5000);
  const auto b = generate_branch_stream(p, 5000);
  ASSERT_EQ(a.size(), 5000u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pc, b[i].pc);
    EXPECT_EQ(a[i].taken, b[i].taken);
  }
}

TEST(Streams, LoopBiasShowsInOutcomes) {
  WorkloadProfile p;
  p.name = "loopy";
  p.loop_fraction = 1.0;
  p.pattern_fraction = 0.0;
  p.loop_bias = 0.95;
  const auto events = generate_branch_stream(p, 50'000);
  const auto taken = std::count_if(events.begin(), events.end(),
                                   [](const BranchEvent& e) {
                                     return e.taken;
                                   });
  EXPECT_NEAR(static_cast<double>(taken) / events.size(), 0.95, 0.01);
}

TEST(Pmu, NamesAreUnique) {
  for (std::size_t i = 0; i < kPmuEventCount; ++i) {
    for (std::size_t j = i + 1; j < kPmuEventCount; ++j) {
      EXPECT_STRNE(pmu_event_name(static_cast<PmuEvent>(i)),
                   pmu_event_name(static_cast<PmuEvent>(j)));
    }
  }
}

TEST(Pmu, DerivedMetrics) {
  CounterSet c;
  c[PmuEvent::kCpuCycles] = 200;
  c[PmuEvent::kInstRetired] = 100;
  c[PmuEvent::kBrRetired] = 20;
  c[PmuEvent::kBrMisPred] = 2;
  c[PmuEvent::kL2dCache] = 10;
  c[PmuEvent::kL2dCacheRefill] = 4;
  EXPECT_DOUBLE_EQ(c.ipc(), 0.5);
  EXPECT_DOUBLE_EQ(c.branch_misprediction_ratio(), 0.1);
  EXPECT_DOUBLE_EQ(c.l2d_miss_ratio(), 0.4);
}

TEST(Pmu, AccumulateAndScale) {
  CounterSet a;
  a[PmuEvent::kInstRetired] = 10;
  CounterSet b;
  b[PmuEvent::kInstRetired] = 5;
  a += b;
  EXPECT_DOUBLE_EQ(a[PmuEvent::kInstRetired], 15.0);
  EXPECT_DOUBLE_EQ(a.scaled(2.0)[PmuEvent::kInstRetired], 30.0);
}

CoreConfig test_core() {
  CoreConfig core;
  core.frequency_hz = 2e9;
  core.issue_width = 2.0;
  core.predictor = PredictorKind::kTournament;
  core.predictor_entries = 4096;
  core.predictor_history_bits = 10;
  core.l1d = CacheConfig{32 * kKiB, 2, 64};
  core.l2 = CacheConfig{1 * kMiB, 16, 64};
  return core;
}

WorkloadProfile test_profile() {
  WorkloadProfile p;
  p.name = "core-model-test";
  return p;
}

TEST(CoreModel, CpiAtLeastIssueBound) {
  const Characterization ch = characterize(test_core(), test_profile());
  EXPECT_GE(ch.cpi, 1.0 / test_core().issue_width);
}

TEST(CoreModel, CountersAreConsistent) {
  const Characterization ch = characterize(test_core(), test_profile());
  const CounterSet& pc = ch.per_instruction;
  EXPECT_DOUBLE_EQ(pc[PmuEvent::kInstRetired], 1.0);
  EXPECT_GE(pc[PmuEvent::kInstSpec], 1.0);
  // L2 accesses equal L1 refills; refills never exceed accesses.
  EXPECT_DOUBLE_EQ(pc[PmuEvent::kL2dCache], pc[PmuEvent::kL1dCacheRefill]);
  EXPECT_LE(pc[PmuEvent::kL2dCacheRefill], pc[PmuEvent::kL2dCache]);
  EXPECT_DOUBLE_EQ(pc[PmuEvent::kCpuCycles], ch.cpi);
}

TEST(CoreModel, SmallerL2RaisesCpi) {
  CoreConfig big = test_core();
  CoreConfig small = test_core();
  small.l2 = CacheConfig{128 * kKiB, 16, 64};
  WorkloadProfile p = test_profile();
  p.working_set = 768 * kKiB;  // fits big L2, thrashes small one
  const double cpi_big = characterize(big, p).cpi;
  const double cpi_small = characterize(small, p).cpi;
  EXPECT_GT(cpi_small, cpi_big);
}

TEST(CoreModel, WeakerPredictorRaisesCpi) {
  CoreConfig strong = test_core();
  CoreConfig weak = test_core();
  weak.predictor = PredictorKind::kBimodal;
  weak.predictor_entries = 512;
  WorkloadProfile p = test_profile();
  p.pattern_fraction = 0.5;
  p.loop_fraction = 0.4;
  const Characterization s = characterize(strong, p);
  const Characterization w = characterize(weak, p);
  EXPECT_GT(w.branch_misprediction_ratio, s.branch_misprediction_ratio);
}

TEST(CoreModel, L2ContentionShrinksEffectiveCache) {
  CoreConfig core = test_core();
  WorkloadProfile p = test_profile();
  p.working_set = 700 * kKiB;
  const double base = characterize(core, p).l2d_miss_ratio;
  core.l2_contention = 4.0;
  const double contended = characterize(core, p).l2d_miss_ratio;
  EXPECT_GT(contended, base);
}

TEST(CoreModel, SecondsForScalesWithInstructions) {
  const Characterization ch = characterize(test_core(), test_profile());
  const double t1 = ch.seconds_for(1e9, 2e9);
  const double t2 = ch.seconds_for(2e9, 2e9);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-12);
}

TEST(CoreModel, DeterministicCharacterization) {
  const Characterization a = characterize(test_core(), test_profile());
  const Characterization b = characterize(test_core(), test_profile());
  EXPECT_DOUBLE_EQ(a.cpi, b.cpi);
  EXPECT_DOUBLE_EQ(a.l2d_miss_ratio, b.l2d_miss_ratio);
}

// Property sweep: CPI must be monotone non-increasing in issue width.
class IssueWidthTest : public ::testing::TestWithParam<double> {};

TEST_P(IssueWidthTest, WiderIssueNeverSlower) {
  CoreConfig narrow = test_core();
  narrow.issue_width = GetParam();
  CoreConfig wide = narrow;
  wide.issue_width = GetParam() + 1.0;
  EXPECT_GE(characterize(narrow, test_profile()).cpi,
            characterize(wide, test_profile()).cpi);
}

INSTANTIATE_TEST_SUITE_P(Widths, IssueWidthTest,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0));

// Property sweep: miss ratio must not increase with associativity for a
// conflict-heavy access pattern.
class AssocTest : public ::testing::TestWithParam<int> {};

TEST_P(AssocTest, MissRatioReasonable) {
  Cache c(CacheConfig{64 * kKiB, GetParam(), 64});
  WorkloadProfile p;
  p.name = "assoc-sweep";
  for (const MemoryAccess& a : generate_memory_stream(p, 100'000)) {
    c.access(a.address);
  }
  EXPECT_GT(c.stats().miss_ratio(), 0.0);
  EXPECT_LT(c.stats().miss_ratio(), 0.6);
}

INSTANTIATE_TEST_SUITE_P(Assoc, AssocTest, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace soc::arch
