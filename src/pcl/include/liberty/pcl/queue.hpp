// Queue: the canonical buffering primitive (FIFO with handshake flow
// control on both ends).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::pcl {

/// Single-input, single-output FIFO.
///
/// Parameters:
///   depth    capacity in entries (>= 1)                        [8]
///   bypass_ack   when full, accept a new entry in the same cycle the head
///            drains.  This couples the input ack combinationally to the
///            output ack (declared via declare_deps), demonstrating how a
///            component's timing behaviour is customized through an
///            algorithmic parameter without touching its code.  [false]
///
/// Stats: enqueued, dequeued, occupancy (accumulator), full_stalls.
class Queue : public liberty::core::Module {
 public:
  Queue(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void react() override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

 private:
  liberty::core::Port& in_;
  liberty::core::Port& out_;
  std::size_t depth_;
  bool bypass_ack_;
  std::deque<liberty::Value> items_;

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Accumulator* occupancy_stat_ = nullptr;
  liberty::Counter* enqueued_stat_ = nullptr;
  liberty::Counter* dequeued_stat_ = nullptr;
  liberty::Counter* full_stalls_stat_ = nullptr;
};

}  // namespace liberty::pcl
