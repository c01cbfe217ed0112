// Module state serialization: the substrate of kernel snapshot/restore.
//
// A snapshot captures, between cycles, everything a module needs to resume
// deterministically: sequential state, RNG words, cumulative counts that
// feed behaviour (e.g. a sink's stop_after progress).  State is held
// in-process as a flat sequence of Values — payloads are immutable once
// published (see value.hpp), so a snapshot may share them by pointer
// instead of deep-copying.
//
// The contract between save_state and load_state is positional: load_state
// must read exactly the slots save_state wrote, in the same order.  The
// reader throws on underflow and Simulator::restore verifies full
// consumption, so a save/load mismatch is an immediate error rather than a
// silently corrupted replay.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "liberty/support/error.hpp"
#include "liberty/support/rng.hpp"
#include "liberty/support/value.hpp"

namespace liberty::core {

class StateWriter {
 public:
  void put(Value v) { slots_.push_back(std::move(v)); }
  void put_bool(bool b) { slots_.emplace_back(b); }
  void put_i64(std::int64_t x) { slots_.emplace_back(x); }
  void put_u64(std::uint64_t x) {
    slots_.emplace_back(static_cast<std::int64_t>(x));
  }
  void put_size(std::size_t x) {
    slots_.emplace_back(static_cast<std::int64_t>(x));
  }
  void put_real(double x) { slots_.emplace_back(x); }
  void put_string(std::string s) { slots_.emplace_back(std::move(s)); }

  [[nodiscard]] const std::vector<Value>& slots() const noexcept {
    return slots_;
  }
  [[nodiscard]] std::vector<Value> take() && { return std::move(slots_); }
  /// Drop every slot but keep the capacity, so one writer can serialize
  /// module after module without reallocating (Simulator::state_digest).
  void clear() noexcept { slots_.clear(); }

 private:
  std::vector<Value> slots_;
};

class StateReader {
 public:
  StateReader(const std::vector<Value>& slots, std::string who)
      : slots_(slots), who_(std::move(who)) {}

  [[nodiscard]] const Value& get() {
    if (next_ >= slots_.size()) {
      throw liberty::SimulationError(
          "state restore underflow in module '" + who_ + "': slot " +
          std::to_string(next_) + " requested, " +
          std::to_string(slots_.size()) + " saved");
    }
    return slots_[next_++];
  }
  [[nodiscard]] bool get_bool() { return get().as_bool(); }
  [[nodiscard]] std::int64_t get_i64() { return get().as_int(); }
  [[nodiscard]] std::uint64_t get_u64() {
    return static_cast<std::uint64_t>(get().as_int());
  }
  [[nodiscard]] std::size_t get_size() {
    return static_cast<std::size_t>(get().as_int());
  }
  [[nodiscard]] double get_real() { return get().as_real(); }
  [[nodiscard]] const std::string& get_string() { return get().as_string(); }

  [[nodiscard]] bool exhausted() const noexcept {
    return next_ == slots_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return slots_.size() - next_;
  }

 private:
  const std::vector<Value>& slots_;
  std::string who_;
  std::size_t next_ = 0;
};

/// Save/restore an Rng's raw state (stochastic modules must draw the same
/// stream after a restore that they would have drawn uninterrupted).
inline void save_rng(StateWriter& w, const liberty::Rng& rng) {
  for (std::uint64_t word : rng.state()) w.put_u64(word);
}
inline void load_rng(StateReader& r, liberty::Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (auto& word : s) word = r.get_u64();
  rng.set_state(s);
}

/// Order-sensitive FNV-1a digest over a state slot sequence.  Payload slots
/// hash their describe() rendering, so two modules agree on a digest iff
/// their states render identically — pointer identity never leaks in.
[[nodiscard]] std::uint64_t digest_slots(const std::vector<Value>& slots);

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

/// Digest a single Value (string content, not pointer identity).
[[nodiscard]] std::uint64_t digest_value(std::uint64_t h, const Value& v);

}  // namespace liberty::core
