// Branch prediction units (§3.2 lists them among UPL's elements).
//
// Predictors are plain component classes embedded in fetch-stage modules —
// they are *algorithmic parameters* of the fetch template: the same fetch
// module is customized with any of these without code changes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "liberty/core/state.hpp"
#include "liberty/support/error.hpp"

namespace liberty::upl {

/// Direction predictor interface.  `predict` must not mutate state;
/// `update` trains with the resolved outcome.  save/load serialize the
/// training state so an embedding module's snapshot covers its predictor
/// (the default is for stateless predictors).
class Predictor {
 public:
  virtual ~Predictor() = default;
  [[nodiscard]] virtual bool predict(std::uint64_t pc) const = 0;
  virtual void update(std::uint64_t pc, bool taken) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void save(liberty::core::StateWriter&) const {}
  virtual void load(liberty::core::StateReader&) {}
};

namespace detail {
/// The low two bits of each byte of `x`, packed: byte k's counter lands
/// at bits 2k..2k+1 of the 16-bit result.
[[nodiscard]] constexpr std::uint64_t pack_counter_bytes(
    std::uint64_t x) noexcept {
  x &= 0x0303030303030303ULL;
  x = (x | (x >> 6)) & 0x000F000F000F000FULL;   // byte pairs -> nibbles
  x = (x | (x >> 12)) & 0x000000FF000000FFULL;  // nibble pairs -> bytes
  return (x | (x >> 24)) & 0xFFFFULL;           // byte pair -> 16 bits
}

/// Snapshot a 2-bit saturating counter table 32 counters per u64 slot
/// (low bits first; a partial last word is zero-padded): the tables are
/// the bulk of a core's state, and every snapshot and digest walks them.
/// On little-endian hosts each full word is built from four 8-byte loads
/// of eight counters each; the partial last word, and every word on other
/// hosts, packs one counter at a time into the same bits.
inline void save_counters(liberty::core::StateWriter& w,
                          const std::vector<std::uint8_t>& table) {
  const std::uint8_t* const p = table.data();
  const std::size_t n = table.size();
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 32 <= n; i += 32) {
      std::uint64_t word = 0;
      for (std::size_t k = 0; k < 4; ++k) {
        std::uint64_t eight = 0;
        std::memcpy(&eight, p + i + 8 * k, sizeof eight);
        word |= pack_counter_bytes(eight) << (16 * k);
      }
      w.put_u64(word);
    }
  }
  std::uint64_t word = 0;
  for (; i < n; ++i) {
    word |= static_cast<std::uint64_t>(p[i] & 3U) << (2 * (i % 32));
    if (i % 32 == 31) {
      w.put_u64(word);
      word = 0;
    }
  }
  if (n % 32 != 0) w.put_u64(word);
}
inline void load_counters(liberty::core::StateReader& r,
                          std::vector<std::uint8_t>& table) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (i % 32 == 0) word = r.get_u64();
    table[i] = static_cast<std::uint8_t>((word >> (2 * (i % 32))) & 3U);
  }
}
}  // namespace detail

/// Always predicts the fixed direction.
class StaticPredictor final : public Predictor {
 public:
  explicit StaticPredictor(bool taken) : taken_(taken) {}
  [[nodiscard]] bool predict(std::uint64_t) const override { return taken_; }
  void update(std::uint64_t, bool) override {}
  [[nodiscard]] std::string name() const override {
    return taken_ ? "static-taken" : "static-not-taken";
  }

 private:
  bool taken_;
};

/// Classic 2-bit saturating counter table indexed by PC.
class BimodalPredictor final : public Predictor {
 public:
  explicit BimodalPredictor(std::size_t entries = 1024)
      : table_(entries, 1) {}  // weakly not-taken
  [[nodiscard]] bool predict(std::uint64_t pc) const override {
    return table_[pc % table_.size()] >= 2;
  }
  void update(std::uint64_t pc, bool taken) override {
    std::uint8_t& c = table_[pc % table_.size()];
    if (taken && c < 3) ++c;
    if (!taken && c > 0) --c;
  }
  [[nodiscard]] std::string name() const override { return "bimodal"; }
  void save(liberty::core::StateWriter& w) const override {
    detail::save_counters(w, table_);
  }
  void load(liberty::core::StateReader& r) override {
    detail::load_counters(r, table_);
  }

 private:
  std::vector<std::uint8_t> table_;
};

/// GShare: global history XOR PC indexes a 2-bit counter table.
class GSharePredictor final : public Predictor {
 public:
  explicit GSharePredictor(std::size_t entries = 4096)
      : table_(entries, 1) {}
  [[nodiscard]] bool predict(std::uint64_t pc) const override {
    return table_[index(pc)] >= 2;
  }
  void update(std::uint64_t pc, bool taken) override {
    std::uint8_t& c = table_[index(pc)];
    if (taken && c < 3) ++c;
    if (!taken && c > 0) --c;
    history_ = (history_ << 1) | (taken ? 1 : 0);
  }
  [[nodiscard]] std::string name() const override { return "gshare"; }
  void save(liberty::core::StateWriter& w) const override {
    detail::save_counters(w, table_);
    w.put_u64(history_);
  }
  void load(liberty::core::StateReader& r) override {
    detail::load_counters(r, table_);
    history_ = r.get_u64();
  }

 private:
  [[nodiscard]] std::size_t index(std::uint64_t pc) const {
    return static_cast<std::size_t>((pc ^ history_) % table_.size());
  }
  std::vector<std::uint8_t> table_;
  std::uint64_t history_ = 0;
};

/// Tournament: a 2-bit chooser selects between bimodal and gshare.
class TournamentPredictor final : public Predictor {
 public:
  explicit TournamentPredictor(std::size_t entries = 1024)
      : bimodal_(entries), gshare_(entries * 4), chooser_(entries, 1) {}
  [[nodiscard]] bool predict(std::uint64_t pc) const override {
    return chooser_[pc % chooser_.size()] >= 2 ? gshare_.predict(pc)
                                               : bimodal_.predict(pc);
  }
  void update(std::uint64_t pc, bool taken) override {
    const bool pb = bimodal_.predict(pc);
    const bool pg = gshare_.predict(pc);
    std::uint8_t& ch = chooser_[pc % chooser_.size()];
    if (pb != pg) {
      // Move the chooser toward whichever component was right.
      if (pg == taken && ch < 3) ++ch;
      if (pb == taken && ch > 0) --ch;
    }
    bimodal_.update(pc, taken);
    gshare_.update(pc, taken);
  }
  [[nodiscard]] std::string name() const override { return "tournament"; }
  void save(liberty::core::StateWriter& w) const override {
    bimodal_.save(w);
    gshare_.save(w);
    detail::save_counters(w, chooser_);
  }
  void load(liberty::core::StateReader& r) override {
    bimodal_.load(r);
    gshare_.load(r);
    detail::load_counters(r, chooser_);
  }

 private:
  BimodalPredictor bimodal_;
  GSharePredictor gshare_;
  std::vector<std::uint8_t> chooser_;
};

/// Branch target buffer: PC -> last-seen target.
class Btb {
 public:
  explicit Btb(std::size_t entries = 512)
      : tags_(entries, kInvalid), targets_(entries, 0) {}

  [[nodiscard]] bool lookup(std::uint64_t pc, std::uint64_t& target) const {
    const std::size_t i = pc % tags_.size();
    if (tags_[i] != pc) return false;
    target = targets_[i];
    return true;
  }
  void insert(std::uint64_t pc, std::uint64_t target) {
    const std::size_t i = pc % tags_.size();
    tags_[i] = pc;
    targets_[i] = target;
  }

  /// Snapshot the valid entries only (count, then index/tag/target each):
  /// a BTB is mostly empty, and invalid entries are the constructor's.
  void save(liberty::core::StateWriter& w) const {
    std::size_t valid = 0;
    for (const std::uint64_t t : tags_) valid += t != kInvalid ? 1 : 0;
    w.put_size(valid);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] == kInvalid) continue;
      w.put_size(i);
      w.put_u64(tags_[i]);
      w.put_u64(targets_[i]);
    }
  }
  void load(liberty::core::StateReader& r) {
    std::fill(tags_.begin(), tags_.end(), kInvalid);
    std::fill(targets_.begin(), targets_.end(), 0);
    const std::size_t valid = r.get_size();
    for (std::size_t k = 0; k < valid; ++k) {
      const std::size_t i = r.get_size();
      if (i >= tags_.size()) {
        throw liberty::SimulationError("BTB restore: entry " +
                                       std::to_string(i) + " out of range");
      }
      tags_[i] = r.get_u64();
      targets_[i] = r.get_u64();
    }
  }

 private:
  static constexpr std::uint64_t kInvalid = ~0ULL;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> targets_;
};

/// Return address stack (used for jalr returns).
class Ras {
 public:
  explicit Ras(std::size_t depth = 16) : depth_(depth) {}
  void push(std::uint64_t addr) {
    if (stack_.size() == depth_) stack_.erase(stack_.begin());
    stack_.push_back(addr);
  }
  [[nodiscard]] bool pop(std::uint64_t& addr) {
    if (stack_.empty()) return false;
    addr = stack_.back();
    stack_.pop_back();
    return true;
  }

 private:
  std::size_t depth_;
  std::vector<std::uint64_t> stack_;
};

/// Factory used by module parameters: "taken", "not_taken", "bimodal",
/// "gshare", "tournament".
[[nodiscard]] std::unique_ptr<Predictor> make_predictor(
    const std::string& kind, std::size_t entries = 1024);

}  // namespace liberty::upl
