// Cache model (§3.2: "realistic cache configurations" composed
// hierarchically) — a parameterizable set-associative cache.
//
// Two layers:
//  * CacheModel — the pure replacement/lookup engine (unit-testable, reused
//    by MPL's coherence controllers for their local line state).
//  * CacheModule — the LSE component: cpu-side req/resp ports, memory-side
//    req/resp ports, miss handling with a fixed number of MSHRs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"
#include "liberty/support/rng.hpp"

namespace liberty::upl {

/// Pure set-associative array: tags, line state, replacement policy.
/// Addresses are word addresses; a line holds `line_words` words.
class CacheModel {
 public:
  enum class Replacement : std::uint8_t { Lru, Fifo, Random };

  CacheModel(std::size_t sets, std::size_t ways, std::size_t line_words,
             Replacement repl, std::uint64_t seed = 7);

  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;  // LRU/FIFO bookkeeping
    std::int64_t meta = 0;    // free field for coherence state (MPL)
  };

  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::size_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t line_words() const noexcept { return line_words_; }

  [[nodiscard]] std::uint64_t line_addr(std::uint64_t addr) const noexcept {
    return addr / line_words_ * line_words_;
  }
  [[nodiscard]] std::size_t set_of(std::uint64_t addr) const noexcept {
    return static_cast<std::size_t>((addr / line_words_) % sets_);
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const noexcept {
    return addr / line_words_ / sets_;
  }

  /// Find the line holding `addr`; null when absent.  Non-const variant
  /// refreshes LRU on hit when `touch`.
  [[nodiscard]] Line* lookup(std::uint64_t addr, bool touch = true);
  [[nodiscard]] const Line* lookup(std::uint64_t addr) const;

  /// Choose (and return) a victim way in addr's set; the line is NOT yet
  /// overwritten.  The caller inspects valid/dirty for writeback.
  [[nodiscard]] Line& victim(std::uint64_t addr);

  /// Install `addr`'s line into `way` (obtained from victim()).
  void fill(Line& way, std::uint64_t addr, bool dirty);

  /// Drop the line holding `addr` (coherence invalidation).  Returns true
  /// when a line was present.
  bool invalidate(std::uint64_t addr);

  /// Reconstruct the base word address of a (set, line) pair — needed when
  /// evicting a victim to know where its data must be written back.
  [[nodiscard]] std::uint64_t addr_of(const Line& line,
                                      std::size_t set) const noexcept {
    return (line.tag * sets_ + set) * line_words_;
  }

  /// Serialize the array (geometry is structural and not saved) so the
  /// embedding module's save_state can include its cache.
  ///
  /// Only valid ways are state.  An invalid way's dirty, tag, stamp and
  /// meta are dead: lookup tests `valid` before the tag, victim returns the
  /// first invalid way without reading its fields, fill overwrites every
  /// field, and the embedders (CacheModule, OoOCore, mpl's DirCache and
  /// SnoopCache) reach a way only through lookup or victim and test
  /// `valid` before they read its tag or meta.  So save writes the count
  /// of valid ways, then for each in (set, way) order its flat index
  /// set * ways + way, dirty, tag, stamp and meta; load resets every way
  /// to Line{} first and throws SimulationError on a count above
  /// sets * ways, an index out of range, or indices that are not strictly
  /// increasing.
  void save(liberty::core::StateWriter& w) const;
  void load(liberty::core::StateReader& r);

 private:
  std::size_t sets_;
  std::size_t ways_;
  std::size_t line_words_;
  Replacement repl_;
  std::uint64_t clock_ = 0;
  liberty::Rng rng_;
  std::vector<Line> lines_;  // way w of set s at s * ways_ + w

  [[nodiscard]] Line* set_begin(std::uint64_t addr) noexcept {
    return lines_.data() + set_of(addr) * ways_;
  }
  [[nodiscard]] const Line* set_begin(std::uint64_t addr) const noexcept {
    return lines_.data() + set_of(addr) * ways_;
  }
};

[[nodiscard]] CacheModel::Replacement replacement_from_string(
    const std::string& s);

/// The cache component.
///
/// Ports:
///   cpu_req (in), cpu_resp (out) — pcl::MemReq / pcl::MemResp
///   mem_req (out), mem_resp (in) — line fills and writebacks downstream
///
/// Parameters:
///   sets, ways, line_words, replacement ("lru"|"fifo"|"random"),
///   hit_latency, mshrs, write_allocate (bool, default true)
///
/// Stats: hits, misses, evictions, writebacks, accesses.
class CacheModule : public liberty::core::Module {
 public:
  CacheModule(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] const CacheModel& model() const noexcept { return model_; }
  [[nodiscard]] double miss_rate() const {
    const auto a = stats().counter_value("accesses");
    return a == 0 ? 0.0
                  : static_cast<double>(stats().counter_value("misses")) /
                        static_cast<double>(a);
  }

 private:
  struct Mshr {
    std::uint64_t line = 0;                 // line being fetched
    std::uint64_t tag = 0;                  // matches the LineResp
    std::vector<liberty::Value> waiters;    // coalesced cpu requests
  };

  liberty::core::Port& cpu_req_;
  liberty::core::Port& cpu_resp_;
  liberty::core::Port& mem_req_;
  liberty::core::Port& mem_resp_;

  CacheModel model_;
  std::uint64_t hit_latency_;
  std::size_t mshr_limit_;
  bool write_allocate_ = true;

  std::deque<Mshr> mshrs_;
  std::deque<liberty::Value> resp_queue_;        // completed cpu responses
  std::deque<liberty::core::Cycle> resp_ready_;  // earliest delivery cycles
  std::deque<liberty::Value> memq_;              // outgoing memory requests
  std::uint64_t next_fill_tag_ = 1;
  // The words of every valid line, by line address (ordered, so
  // save_state walks it as it stands).
  std::map<std::uint64_t, std::vector<std::int64_t>> line_data_;

  void handle_cpu_request(const liberty::Value& v);
};

}  // namespace liberty::upl
