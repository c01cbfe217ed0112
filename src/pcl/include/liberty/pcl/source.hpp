// Source: configurable producer of values — the workload end of most
// testbenches and the base class of the CCL's statistical traffic
// generators (§2.2's "statistical packet generator").
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"
#include "liberty/support/rng.hpp"

namespace liberty::pcl {

/// Emits values on its single output port.
///
/// Parameters:
///   kind        "counter" (0,1,2,...), "token" (empty tokens), or
///               "random" (uniform ints in [0, range))       [counter]
///   period      emit one value every `period` cycles (0 = use rate) [1]
///   rate        Bernoulli emission probability per cycle (used when
///               period == 0)                                 [0.0]
///   count       stop after this many values (0 = unlimited)  [0]
///   start       first cycle at which emission may occur      [0]
///   range       value range for kind=random                  [1024]
///   seed        RNG seed                                     [1]
///   queue_depth backlog capacity for open-loop injection; arrivals
///               beyond it are counted as dropped (0 = unbounded) [0]
///   stamp       wrap values in pcl::Stamped carrying the arrival cycle
///               so sinks can compute latency                 [false]
///
/// Stats: emitted, dropped, backlog (accumulator).
class Source : public liberty::core::Module {
 public:
  Source(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void declare_opt(liberty::core::OptTraits& traits) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

 protected:
  /// Hook for subclasses: the value for the seq-th generated item.
  [[nodiscard]] virtual liberty::Value make_value(std::uint64_t seq);

  /// Hook for subclasses: does an arrival occur this cycle?  The default
  /// implements period/rate arrivals.
  [[nodiscard]] virtual bool arrival_now(liberty::core::Cycle c);

  liberty::Rng rng_;

 private:
  liberty::core::Port& out_;
  std::string kind_;
  std::uint64_t period_;
  double rate_;
  std::uint64_t count_;
  std::uint64_t start_;
  std::int64_t range_;
  std::size_t queue_depth_;
  bool stamp_;

  std::deque<liberty::Value> backlog_;
  std::uint64_t generated_ = 0;
  std::uint64_t emitted_ = 0;

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Accumulator* backlog_stat_ = nullptr;
  liberty::Counter* emitted_stat_ = nullptr;
  liberty::Counter* dropped_stat_ = nullptr;
};

}  // namespace liberty::pcl
