#include "arch/tlb.h"

#include <bit>

#include "common/error.h"

namespace soc::arch {

Tlb::Tlb(TlbConfig config) : config_(config) {
  SOC_CHECK(config_.entries > 0 && config_.associativity > 0,
            "invalid TLB config");
  SOC_CHECK(config_.entries % config_.associativity == 0,
            "entries must divide into ways");
  SOC_CHECK(std::has_single_bit(static_cast<std::uint64_t>(config_.page_size)),
            "page size must be a power of two");
  const int sets = config_.entries / config_.associativity;
  SOC_CHECK(std::has_single_bit(static_cast<unsigned>(sets)),
            "set count must be a power of two");
  set_mask_ = static_cast<std::uint64_t>(sets) - 1;
  assoc_ = static_cast<std::size_t>(config_.associativity);
  page_shift_ =
      std::countr_zero(static_cast<std::uint64_t>(config_.page_size));
  entries_.assign(static_cast<std::size_t>(config_.entries), Entry{});
}

bool Tlb::access(std::uint64_t address) {
  ++stats_.accesses;
  const std::uint64_t vpn = address >> page_shift_;
  Entry* base = &entries_[static_cast<std::size_t>(vpn & set_mask_) * assoc_];

  Entry* victim = base;
  for (std::size_t w = 0; w < assoc_; ++w) {
    Entry& e = base[w];
    if (e.vpn == vpn && e.lru != 0) {
      e.lru = ++tick_;
      return true;
    }
    if (e.lru < victim->lru) victim = &e;
  }
  ++stats_.misses;
  *victim = Entry{vpn, ++tick_};
  return false;
}

}  // namespace soc::arch
