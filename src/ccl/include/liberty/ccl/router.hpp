// Router: input-buffered, virtual-channel wormhole router.
//
// Multi-flit packets: the head flit makes the routing decision and locks
// its output channel; body flits follow the head through the same
// input-VC FIFO and inherit its route; the tail flit releases the lock.
// Other packets cannot interleave into a locked output — the wormhole
// discipline.
//
// The CCL's central component (§3.3): parameterized over VC count, buffer
// depth, routing function, and geometry, with the Orion power model
// attached to its buffer/arbiter/crossbar events.  The same template serves
// on-chip mesh networks (XY routing), rings (shortest-path), and arbitrary
// fabrics (custom routing hook).
//
// Port convention (indices into the `in`/`out` ports, fixed by the
// topology builders):
//   mesh: 0 = local, 1 = east, 2 = west, 3 = north, 4 = south
//   ring: 0 = local, 1 = clockwise, 2 = counter-clockwise
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "liberty/ccl/flit.hpp"
#include "liberty/ccl/power.hpp"
#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::ccl {

/// Parameters:
///   id              this router's node id                          [0]
///   nodes           total node count                               [1]
///   routing         "xy" | "torus_xy" (wrap-aware shortest per
///                   dimension) | "ring" | "dst" (dst==port) | "custom" [xy]
///   cols, rows      mesh geometry (xy routing)                     [1,1]
///   vcs             virtual channels per input                     [2]
///   depth           buffer depth per VC                            [4]
///   pipeline        cycles from buffer write to switch eligibility [1]
///   flit_bits       power model width                              [64]
///
/// Stats: flits_in, flits_out, delivered (local ejection), buffer
/// occupancy, allocation conflicts.  Energy via power().
class Router : public liberty::core::Module {
 public:
  using RouteFn = std::function<std::size_t(const Flit&)>;

  Router(const std::string& name, const liberty::core::Params& params);

  void init() override;
  void cycle_start(liberty::core::Cycle c) override;
  void react() override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  /// Algorithmic parameter: replace the routing function.
  void set_route_fn(RouteFn fn) { route_fn_ = std::move(fn); }

  [[nodiscard]] const RouterPower& power() const noexcept { return power_; }
  [[nodiscard]] const ThermalModel& thermal() const noexcept {
    return thermal_;
  }
  [[nodiscard]] std::size_t node_id() const noexcept { return id_num_; }

 private:
  struct Entry {
    liberty::Value value;
    std::size_t out_port;
    liberty::core::Cycle ready;
  };

  [[nodiscard]] std::size_t route(const Flit& f) const;
  [[nodiscard]] std::size_t buffer_index(std::size_t input,
                                         std::size_t vc) const {
    return input * vcs_ + vc;
  }

  liberty::core::Port& in_;
  liberty::core::Port& out_;
  std::size_t id_num_;
  std::size_t nodes_;
  std::string routing_;
  std::size_t cols_;
  std::size_t rows_;
  std::size_t vcs_;
  std::size_t depth_;
  std::uint64_t pipeline_;
  RouteFn route_fn_;
  RouterPower power_;
  ThermalModel thermal_;

  std::vector<std::deque<Entry>> buffers_;  // [input * vcs + vc]
  std::vector<std::size_t> last_route_;     // per-buffer: head's out port
  std::vector<std::size_t> rr_;             // per-output rotation pointer
  std::vector<int> grant_;                  // per-output winning buffer, -1
  std::vector<int> out_lock_;               // per-output: owning buffer, -1
  std::vector<std::vector<std::size_t>> candidates_;  // per output; scratch

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Accumulator* occupancy_stat_ = nullptr;
  liberty::Counter* flits_in_stat_ = nullptr;
  liberty::Counter* flits_out_stat_ = nullptr;
  liberty::Counter* delivered_stat_ = nullptr;
  liberty::Counter* alloc_conflicts_stat_ = nullptr;
  liberty::Counter* buffer_stalls_stat_ = nullptr;
};

}  // namespace liberty::ccl
