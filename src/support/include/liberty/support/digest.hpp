// FNV-1a folding: the one hash behind every trace and state digest.
//
// Digests are the differential oracle's comparison point, so they must be
// deterministic across processes and builds and must never see pointer
// identity.  Everything here is constexpr, allocation-free and lock-free:
// payload digest folds (Payload::digest) run on the oracle's worker
// threads at once.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace liberty {

inline constexpr std::uint64_t kFnv1aInit = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// kFnv1aPrimePow[k] = kFnv1aPrime^k (mod 2^64).
inline constexpr std::array<std::uint64_t, 9> kFnv1aPrimePow = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) {
    pow[k] = pow[k - 1] * kFnv1aPrime;
  }
  return pow;
}();

/// Fold one 64-bit word, low byte first, into a running FNV-1a digest
/// (state digests and every transfer-trace hash).  The bytes above the
/// word's highest nonzero byte xor in nothing, so their steps are bare
/// multiplications and fold into one multiply by a power of the prime:
/// bit-identical to eight byte steps, and small words (type tags, sizes,
/// counters) cost one or two.
[[nodiscard]] constexpr std::uint64_t fnv1a_mix(std::uint64_t h,
                                                std::uint64_t word) noexcept {
  // Bytes up to and including the highest nonzero one; 0 for a zero word.
  const int bytes = (71 - std::countl_zero(word)) / 8;
  for (int i = 0; i < bytes; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= kFnv1aPrime;
  }
  return h * kFnv1aPrimePow[8 - bytes];
}

/// Fold a byte string into a running FNV-1a digest, one step per byte.
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(
    std::uint64_t h, std::string_view bytes) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Fold a sequence of integer words: its length, then each word.
template <typename Words>
[[nodiscard]] constexpr std::uint64_t fnv1a_words(std::uint64_t h,
                                                  const Words& words) noexcept {
  h = fnv1a_mix(h, words.size());
  for (const auto w : words) h = fnv1a_mix(h, static_cast<std::uint64_t>(w));
  return h;
}

/// Compile-time type tag for a payload digest fold: the FNV-1a hash of the
/// payload's stable name (its checkpoint codec name, e.g. "pcl.memreq"), so
/// two payload types with equal fields never digest alike.
[[nodiscard]] consteval std::uint64_t digest_tag(std::string_view name) {
  return fnv1a_bytes(kFnv1aInit, name);
}

}  // namespace liberty
