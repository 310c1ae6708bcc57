// Deterministic open-addressing flat map.
//
// The replay engine keeps its memo caches and (through MatchTable) its
// pending-message tables in these.  Two properties make that safe where
// std::unordered_map is banned (see soclint's unordered-in-sim-state rule):
//
//  1. Iteration walks the dense entry vector — the hash table is only an
//     index over it — so iteration order is a deterministic function of
//     the insert/erase sequence: inserts append, and erase moves the last
//     entry into the freed index.  Hash values never influence it.
//  2. Lookups compare full keys, never hashes alone, so a hash collision
//     can change probe counts but never which entry is found.
//
// The trade against std::map: O(1) expected find/insert/erase with zero
// per-node allocation (one vector for entries, one for slots), at the
// cost of no sorted order.  Erase uses backward-shift deletion, so the
// probe table never holds tombstones and a map that churns keys stays as
// small as its live entry count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"

namespace soc {

/// Default hash: splitmix64 finalizer for integral keys.  Full-width
/// mixing keeps linear probing well distributed even for packed bitfield
/// keys whose low bits carry little entropy.
template <typename Key>
struct FlatMapHash {
  static_assert(std::is_integral_v<Key> || std::is_enum_v<Key>,
                "provide a custom Hash for non-integral keys");
  std::uint64_t operator()(const Key& key) const {
    std::uint64_t x = static_cast<std::uint64_t>(key);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
};

/// Dense-vector open-addressing hash map with linear probing.
template <typename Key, typename Value, typename Hash = FlatMapHash<Key>>
class flat_map {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  flat_map() = default;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Entry-vector iteration (the determinism contract).
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  /// Drops all entries but keeps both allocations for reuse.
  void clear() {
    entries_.clear();
    slots_.assign(slots_.size(), kEmpty);
  }

  /// Pre-sizes for `n` entries so the hot path never rehashes.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    const std::size_t want = slot_count_for(n);
    if (want > slots_.size()) rehash(want);
  }

  /// Pointer to the mapped value, or nullptr when absent.  Invalidated by
  /// any insert or erase.
  Value* find(const Key& key) {
    const std::size_t slot = find_slot(key);
    if (slots_.empty() || slots_[slot] == kEmpty) return nullptr;
    return &entries_[slots_[slot]].second;
  }
  const Value* find(const Key& key) const {
    return const_cast<flat_map*>(this)->find(key);
  }

  /// Value for `key`, default-constructed and inserted when absent.
  Value& operator[](const Key& key) {
    if (slots_.empty()) rehash(kMinSlots);
    std::size_t slot = find_slot(key);
    if (slots_[slot] == kEmpty) {
      if (needs_growth()) {
        rehash(slots_.size() * 2);
        slot = find_slot(key);
      }
      slots_[slot] = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back(key, Value{});
    }
    return entries_[slots_[slot]].second;
  }

  /// Removes `key`; returns false when it was absent.  The last entry
  /// moves into the freed index, so erase is O(1) expected and never
  /// leaves a hole in the entry vector.
  bool erase(const Key& key) {
    if (slots_.empty()) return false;
    const std::size_t slot = find_slot(key);
    if (slots_[slot] == kEmpty) return false;
    const std::uint32_t index = slots_[slot];
    shift_back(slot);
    const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (index != last) {
      const std::size_t mask = slots_.size() - 1;
      std::size_t s = home_slot(entries_[last].first);
      while (slots_[s] != last) s = (s + 1) & mask;
      slots_[s] = index;
      entries_[index] = std::move(entries_[last]);
    }
    entries_.pop_back();
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::size_t kMinSlots = 16;

  /// Smallest power-of-two slot table holding `n` entries below the 0.7
  /// load-factor ceiling.
  static std::size_t slot_count_for(std::size_t n) {
    std::size_t slots = kMinSlots;
    while (static_cast<double>(n) >= 0.7 * static_cast<double>(slots)) {
      slots *= 2;
    }
    return slots;
  }

  bool needs_growth() const {
    return static_cast<double>(entries_.size() + 1) >=
           0.7 * static_cast<double>(slots_.size());
  }

  std::size_t home_slot(const Key& key) const {
    return static_cast<std::size_t>(Hash{}(key)) & (slots_.size() - 1);
  }

  /// Linear probe: slot holding `key`, or the empty slot where it would
  /// be inserted.  Requires a non-empty slot table unless the map is empty.
  std::size_t find_slot(const Key& key) const {
    if (slots_.empty()) return 0;
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = home_slot(key);
    while (slots_[slot] != kEmpty) {
      if (entries_[slots_[slot]].first == key) return slot;
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Backward-shift deletion: empties `hole`, then walks the rest of its
  /// probe cluster and pulls back every entry whose home slot lies at or
  /// before the hole, so each remaining key stays reachable from its home
  /// without tombstones.
  void shift_back(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j] != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t home = home_slot(entries_[slots_[j]].first);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
  }

  void rehash(std::size_t new_slot_count) {
    SOC_CHECK((new_slot_count & (new_slot_count - 1)) == 0,
              "flat_map slot count must be a power of two");
    slots_.assign(new_slot_count, kEmpty);
    const std::size_t mask = new_slot_count - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t slot = home_slot(entries_[i].first);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<value_type> entries_;     ///< Dense payload (see contract 1).
  std::vector<std::uint32_t> slots_;    ///< Power-of-two probe table.
};

}  // namespace soc
