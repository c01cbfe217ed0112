// Fabric elements: Link (point-to-point wire with latency + energy) and
// Bus (shared broadcast medium with arbitration) — §3.3's "buses and
// routers", spanning "on-chip buses ... to chip-to-chip electrical
// backplanes".
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "liberty/ccl/power.hpp"
#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::ccl {

/// Pipelined point-to-point link.
///
/// Parameters:
///   latency      traversal cycles (>= 1)                        [1]
///   capacity     flits in flight (0 = latency)                  [0]
///   link_mm      physical length for the energy model           [1.0]
///   flit_bits    width for the energy model                     [64]
///
/// Stats: traversals.  Energy via power().
class Link : public liberty::core::Module {
 public:
  Link(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] const LinkPower& power() const noexcept { return power_; }

 private:
  struct Entry {
    liberty::Value value;
    liberty::core::Cycle ready;
  };

  liberty::core::Port& in_;
  liberty::core::Port& out_;
  std::uint64_t latency_;
  std::size_t capacity_;
  LinkPower power_;
  std::deque<Entry> entries_;
  liberty::Counter* traversals_stat_ = nullptr;  // see StatSet::bind
};

/// Shared bus: N masters arbitrate (round-robin); the winning transaction
/// occupies the bus for `occupancy` cycles and is then delivered either to
/// every output (broadcast = true — the snooping-coherence configuration)
/// or to the output selected by the payload's Routable key.
///
/// Parameters:
///   occupancy   bus cycles per transaction (>= 1)               [1]
///   broadcast   deliver to all outputs                          [true]
///
/// Stats: transactions, conflicts, busy_cycles.
class Bus : public liberty::core::Module {
 public:
  Bus(const std::string& name, const liberty::core::Params& params);

  void init() override;
  void cycle_start(liberty::core::Cycle c) override;
  void react() override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

 private:
  /// Should output `o` receive the current transaction?
  [[nodiscard]] bool wants(std::size_t o) const;

  liberty::core::Port& in_;
  liberty::core::Port& out_;
  std::uint64_t occupancy_;
  bool broadcast_;
  std::size_t rr_ = 0;

  // Transaction being delivered (bus already won, waiting for occupancy
  // and for every receiver to take its copy).
  bool busy_ = false;
  liberty::Value current_;
  liberty::core::Cycle deliver_at_ = 0;
  std::vector<bool> delivered_;
  int winner_ = -1;  // this cycle's arbitration result
  bool decided_ = false;

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* busy_cycles_stat_ = nullptr;
  liberty::Counter* conflicts_stat_ = nullptr;
  liberty::Counter* transactions_stat_ = nullptr;
};

}  // namespace liberty::ccl
