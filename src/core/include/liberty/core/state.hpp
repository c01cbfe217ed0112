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
//
// State digests (the differential oracle's comparison point) stream from
// the same save_state: a digest-only StateWriter folds each slot as it is
// written and folds the slot count last, so digesting builds no Values.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "liberty/support/error.hpp"
#include "liberty/support/rng.hpp"
#include "liberty/support/value.hpp"

namespace liberty::core {

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

/// Digest a single Value (string content, not pointer identity): its
/// variant index as a type tag, so e.g. int 1 and bool true differ, then
/// its content.
[[nodiscard]] std::uint64_t digest_value(std::uint64_t h, const Value& v);

namespace detail {
/// The variant index digest_value folds as the type tag of a T slot.
template <typename T, std::size_t I = 0>
[[nodiscard]] constexpr std::uint64_t slot_tag() noexcept {
  if constexpr (std::is_same_v<T,
                               std::variant_alternative_t<I, Value::Variant>>) {
    return I;
  } else {
    return slot_tag<T, I + 1>();
  }
}
}  // namespace detail

/// Receives a module's save_state slots.  A default-constructed writer
/// stores them (snapshots and checkpoints).  A writer built
/// with StateWriter::digest_only stores nothing: each put folds its slot
/// into a running FNV-1a digest on the spot, exactly as digest_value would
/// fold the equivalent Value, and digest() folds the slot count last.  That
/// is how state digests stream straight out of save_state.
class StateWriter {
 public:
  struct DigestOnly {};
  static constexpr DigestOnly digest_only{};

  StateWriter() = default;
  explicit StateWriter(DigestOnly) noexcept : digest_only_(true) {}

  void put(Value v) {
    if (digest_only_) {
      h_ = digest_value(h_, v);
      ++count_;
    } else {
      slots_.push_back(std::move(v));
    }
  }
  void put_bool(bool b) {
    if (digest_only_) {
      fold(detail::slot_tag<bool>(), b ? 1 : 0);
    } else {
      slots_.emplace_back(b);
    }
  }
  void put_i64(std::int64_t x) {
    if (digest_only_) {
      fold(detail::slot_tag<std::int64_t>(), static_cast<std::uint64_t>(x));
    } else {
      slots_.emplace_back(x);
    }
  }
  void put_u64(std::uint64_t x) { put_i64(static_cast<std::int64_t>(x)); }
  void put_size(std::size_t x) { put_i64(static_cast<std::int64_t>(x)); }
  void put_real(double x) {
    if (digest_only_) {
      fold(detail::slot_tag<double>(), std::bit_cast<std::uint64_t>(x));
    } else {
      slots_.emplace_back(x);
    }
  }
  void put_string(std::string s) { put(Value(std::move(s))); }

  /// The stored slots (always empty in digest-only mode).
  [[nodiscard]] const std::vector<Value>& slots() const noexcept {
    return slots_;
  }
  [[nodiscard]] std::vector<Value> take() && { return std::move(slots_); }
  /// Digest-only mode: digest_slots of the slots put so far.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    return fnv1a_mix(h_, count_);
  }

 private:
  void fold(std::uint64_t tag, std::uint64_t word) noexcept {
    h_ = fnv1a_mix(fnv1a_mix(h_, tag), word);
    ++count_;
  }

  std::vector<Value> slots_;
  bool digest_only_ = false;
  std::uint64_t h_ = kFnv1aInit;
  std::size_t count_ = 0;
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

/// Order-sensitive FNV-1a digest over a state slot sequence: the fold a
/// digest-only StateWriter runs, so a module's state_digest() equals
/// digest_slots of its stored save_state slots.  Payload slots hash their
/// describe() rendering, so two modules agree on a digest iff their states
/// render identically — pointer identity never leaks in.
[[nodiscard]] std::uint64_t digest_slots(const std::vector<Value>& slots);

}  // namespace liberty::core
