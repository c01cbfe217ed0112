// OoOCore: a behavioral out-of-order processor model.
//
// Where pipeline.hpp models a core *structurally* (five communicating
// modules), OoOCore models one *behaviorally*: a single module that replays
// the program's dynamic instruction trace (produced by the functional
// emulator) through a timing model with a fetch width, an instruction
// window, a reorder buffer, latency-typed functional units, an online
// branch predictor, and an internal data cache.  The pair demonstrates the
// paper's §2.2 point that models at different abstraction levels coexist in
// one system: both are just modules.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"
#include "liberty/upl/cache.hpp"
#include "liberty/upl/isa.hpp"
#include "liberty/upl/predictors.hpp"

namespace liberty::upl {

/// Parameters:
///   width               fetch/issue/commit width               [4]
///   window              instruction window capacity            [32]
///   rob                 reorder buffer capacity                [64]
///   predictor           direction predictor kind               [gshare]
///   mispredict_penalty  extra frontend refill cycles           [8]
///   mul_latency / div_latency                                  [3 / 12]
///   load_hit / load_miss  dcache hit / miss latency            [2 / 40]
///   dcache_sets / dcache_ways / dcache_line                    [64/4/4]
///   max_instrs          trace length bound                     [1000000]
///   stop_on_halt        request simulation stop at completion  [true]
///   program             LRISC assembly text, assembled at construction [""]
///
/// The program is attached with set_program() or the `program` parameter.
/// Stats: retired, cycles, mispredicts, dcache_hits, dcache_misses,
/// window_occupancy.
class OoOCore : public liberty::core::Module {
 public:
  OoOCore(const std::string& name, const liberty::core::Params& params);

  /// The program is copied; the core owns everything it replays.
  void set_program(Program prog) {
    prog_ = std::move(prog);
    have_program_ = true;
  }

  void init() override;
  void end_of_cycle() override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] bool done() const noexcept {
    return trace_ready_ && commit_ptr_ >= trace_.size();
  }
  [[nodiscard]] std::uint64_t retired() const noexcept { return commit_ptr_; }
  [[nodiscard]] double ipc() const {
    const auto cycles = stats().counter_value("cycles");
    return cycles == 0 ? 0.0
                       : static_cast<double>(commit_ptr_) /
                             static_cast<double>(cycles);
  }
  [[nodiscard]] const std::vector<std::int64_t>& output() const noexcept {
    return output_;
  }

 private:
  struct TraceEntry {
    Instr instr;
    std::uint64_t pc = 0;
    bool taken = false;          // branch outcome
    std::uint64_t mem_addr = 0;  // loads/stores
  };

  /// A trace entry in flight through the machine.
  struct InFlight {
    std::size_t idx = 0;        // trace index
    bool issued = false;
    std::uint64_t done = 0;     // completion cycle (valid once issued)
  };

  void build_trace();
  [[nodiscard]] std::uint64_t exec_latency(const TraceEntry& e);
  void do_commit();
  void do_issue();
  void do_fetch();

  Program prog_;
  bool have_program_ = false;
  std::size_t width_;
  std::size_t window_size_;
  std::size_t rob_size_;
  std::unique_ptr<Predictor> pred_;
  std::uint64_t mispredict_penalty_;
  std::uint64_t mul_latency_;
  std::uint64_t div_latency_;
  std::uint64_t load_hit_;
  std::uint64_t load_miss_;
  std::uint64_t max_instrs_;
  bool stop_on_halt_;
  CacheModel dcache_;

  std::vector<TraceEntry> trace_;
  std::vector<std::int64_t> output_;
  bool trace_ready_ = false;

  std::deque<InFlight> rob_;       // in program order; window = unissued
  std::size_t fetch_ptr_ = 0;      // next trace index to fetch
  std::size_t commit_ptr_ = 0;     // retired count
  std::uint64_t reg_ready_[32] = {};
  std::unordered_map<std::uint64_t, std::uint64_t> store_ready_;
  std::uint64_t fetch_stalled_until_ = 0;
  std::optional<std::size_t> blocking_branch_;  // trace idx awaiting resolve

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* cycles_stat_ = nullptr;
  liberty::Counter* retired_stat_ = nullptr;
  liberty::Counter* dcache_hits_stat_ = nullptr;
  liberty::Counter* dcache_misses_stat_ = nullptr;
  liberty::Counter* window_full_stalls_stat_ = nullptr;
  liberty::Counter* mispredicts_stat_ = nullptr;
  liberty::Counter* correct_predictions_stat_ = nullptr;
  liberty::Accumulator* window_occupancy_stat_ = nullptr;
};

}  // namespace liberty::upl
