// Order-sensitive FNV-1a (64-bit) hashing.
//
// The determinism auditor folds the engine's committed event stream into
// one of these digests: two replays of the same (programs, cost model,
// scenario) triple must produce bit-identical values, on every platform.
// Fields are decomposed into bytes explicitly (little-endian, fixed
// width), so the digest never depends on host endianness or padding.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace soc {

/// Incremental FNV-1a 64-bit digest.  Mix order matters — that is the
/// point: the digest certifies the *sequence* of mixed records, not a set.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  constexpr std::uint64_t value() const { return state_; }

  constexpr Fnv1a& mix_byte(std::uint8_t b) {
    state_ = (state_ ^ b) * kPrime;
    return *this;
  }

  /// Mixes a 64-bit value as 8 little-endian bytes.  Mixing a zero byte
  /// is a plain multiply, (h ^ 0)·P = h·P (mod 2^64), so the k zero bytes
  /// above the highest nonzero one fold into one multiply by P^k: a time,
  /// rank or byte count costs its significant bytes, not always 8.
  constexpr Fnv1a& mix_u64(std::uint64_t v) {
    const int bytes = (71 - std::countl_zero(v)) / 8;  // 0 when v == 0
    for (int i = 0; i < bytes; ++i) {
      mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    state_ *= kPrimePowers[static_cast<std::size_t>(8 - bytes)];
    return *this;
  }

  constexpr Fnv1a& mix_i64(std::int64_t v) {
    return mix_u64(static_cast<std::uint64_t>(v));
  }

 private:
  /// kPrimePowers[k] = P^k (mod 2^64), k = 0..8.
  static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{1};
    for (std::size_t k = 1; k < powers.size(); ++k) {
      powers[k] = powers[k - 1] * kPrime;
    }
    return powers;
  }();

  std::uint64_t state_ = kOffsetBasis;
};

}  // namespace soc
