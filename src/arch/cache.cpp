#include "arch/cache.h"

#include <bit>

#include "common/error.h"

namespace soc::arch {

int CacheConfig::sets() const {
  SOC_CHECK(size > 0 && associativity > 0 && line_size > 0,
            "invalid cache config");
  const Bytes per_way = size / associativity;
  SOC_CHECK(per_way % line_size == 0, "size not divisible into lines");
  return static_cast<int>(per_way / line_size);
}

Cache::Cache(CacheConfig config) : config_(config) {
  const int sets = config_.sets();
  SOC_CHECK(std::has_single_bit(static_cast<std::uint64_t>(sets)),
            "set count must be a power of two");
  SOC_CHECK(std::has_single_bit(static_cast<std::uint64_t>(config_.line_size)),
            "line size must be a power of two");
  line_shift_ = std::countr_zero(static_cast<std::uint64_t>(config_.line_size));
  set_mask_ = static_cast<std::uint64_t>(sets) - 1;
  assoc_ = static_cast<std::size_t>(config_.associativity);
  ways_.assign(static_cast<std::size_t>(sets) * assoc_, Way{});
}

Cache::Way* Cache::find(std::uint64_t tag, Way*& victim) {
  Way* base = &ways_[static_cast<std::size_t>(tag & set_mask_) * assoc_];
  victim = base;
  for (std::size_t w = 0; w < assoc_; ++w) {
    Way& way = base[w];
    if (way.tag == tag && way.lru != 0) return &way;
    if (way.lru < victim->lru) victim = &way;
  }
  return nullptr;
}

void Cache::allocate(std::uint64_t address) {
  const std::uint64_t tag = address >> line_shift_;
  Way* victim = nullptr;
  if (find(tag, victim) != nullptr) return;  // already resident
  *victim = Way{tag, ++tick_};
}

bool Cache::access(std::uint64_t address) {
  ++stats_.accesses;
  const std::uint64_t tag = address >> line_shift_;
  Way* victim = nullptr;
  if (Way* way = find(tag, victim)) {
    way->lru = ++tick_;
    return true;
  }
  ++stats_.misses;
  *victim = Way{tag, ++tick_};
  // Next-line prefetch: pull the following lines in after a demand miss.
  for (int n = 1; n <= config_.prefetch_lines; ++n) {
    allocate(address + static_cast<std::uint64_t>(n) *
                           static_cast<std::uint64_t>(config_.line_size));
    ++stats_.prefetches;
  }
  return false;
}

bool Cache::probe(std::uint64_t address) const {
  const std::uint64_t tag = address >> line_shift_;
  const Way* base = &ways_[static_cast<std::size_t>(tag & set_mask_) * assoc_];
  for (std::size_t w = 0; w < assoc_; ++w) {
    if (base[w].tag == tag && base[w].lru != 0) return true;
  }
  return false;
}

CacheHierarchy::CacheHierarchy(CacheConfig l1, CacheConfig l2)
    : l1_(l1), l2_(l2) {}

int CacheHierarchy::access(std::uint64_t address) {
  if (l1_.access(address)) return 1;
  if (l2_.access(address)) return 2;
  return 3;
}

void CacheHierarchy::reset_stats() {
  l1_.reset_stats();
  l2_.reset_stats();
}

}  // namespace soc::arch
