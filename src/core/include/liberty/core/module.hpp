// Module: the unit of structural composition.
//
// "Like real hardware, each LSE module instance executes concurrently with
// other LSE module instances ... Each module instance is abstracted solely
// by its communication interface, with no assumptions about sequentiality of
// the internal computation." (§2.1)
//
// A module participates in simulation through four hooks:
//
//   init()         once, after the netlist is finalized; size internal state
//                  from the now-known port widths and parameters.
//   cycle_start(c) at the top of each cycle; drive every signal that depends
//                  only on sequential state (a queue offers its head and
//                  acks based on free space here).
//   react()        called (possibly many times) as this module's visible
//                  signals resolve during the cycle; must be MONOTONE: look
//                  only at known signals, drive outputs exactly once, and be
//                  idempotent.  Combinational modules (arbiters, muxes,
//                  allocators) live here.
//   end_of_cycle() after all signals resolved; commit sequential state by
//                  inspecting transferred() on endpoints.
//
// Modules additionally participate in kernel snapshot/restore through the
// save_state/load_state pair (see state.hpp): between cycles, save_state
// serializes everything the module needs to resume deterministically and
// load_state reads it back in the same order.  A module whose behaviour is
// a pure function of its ports needs neither override.
//
// Causality rule (documented contract, checked dynamically by the kernel's
// monotonicity errors): a module's *forward* drives may depend only on its
// input forward signals; *backward* drives may depend on anything.  This is
// the discipline that makes the paper's default-control handshake compose.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "liberty/core/port.hpp"
#include "liberty/core/state.hpp"
#include "liberty/core/types.hpp"
#include "liberty/support/stats.hpp"

namespace liberty::core {

class Netlist;
class OptTraits;
class SchedulerBase;

/// Reference to one directional signal group of a port, used to declare
/// combinational dependencies for static scheduling.
struct SignalRef {
  const Port* port;
  ChannelKind kind;
};

[[nodiscard]] inline SignalRef fwd(const Port& p) {
  return {&p, ChannelKind::Forward};
}
[[nodiscard]] inline SignalRef bwd(const Port& p) {
  return {&p, ChannelKind::Backward};
}

/// Collects a module's declared combinational dependencies.  A *driven*
/// signal group is the forward side of an output port or the backward (ack)
/// side of an input port — the directions this module produces.  Sources are
/// the directions it observes.  Anything not declared is treated
/// conservatively (depends on every observable signal of the module), which
/// is always correct but may serialize the static schedule.
class Deps {
 public:
  /// Declare that signals this module drives on `driven` depend
  /// combinationally on exactly `sources` (empty list = state-only).
  void depends(const Port& driven, std::initializer_list<SignalRef> sources) {
    declared_[&driven] = std::vector<SignalRef>(sources);
  }
  void depends(const Port& driven, std::vector<SignalRef> sources) {
    declared_[&driven] = std::move(sources);
  }
  /// Declare that `driven` is produced from sequential state alone.
  void state_only(const Port& driven) { declared_[&driven] = {}; }

  [[nodiscard]] const std::map<const Port*, std::vector<SignalRef>>& declared()
      const noexcept {
    return declared_;
  }

 private:
  std::map<const Port*, std::vector<SignalRef>> declared_;
};

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] ModuleId id() const noexcept { return id_; }

  /// Port lookup by name; throws ElaborationError when absent.
  [[nodiscard]] Port& port(const std::string& name) const;
  /// Directional lookups (also verify direction).
  [[nodiscard]] Port& in(const std::string& name) const;
  [[nodiscard]] Port& out(const std::string& name) const;
  [[nodiscard]] bool has_port(const std::string& name) const noexcept;

  [[nodiscard]] const std::vector<std::unique_ptr<Port>>& ports()
      const noexcept {
    return ports_;
  }

  // Simulation hooks (see file comment).
  virtual void init() {}
  virtual void cycle_start(Cycle) {}
  virtual void react() {}
  virtual void end_of_cycle() {}

  /// Declare combinational dependencies for the static scheduler.  The
  /// default declares nothing, which the scheduler treats conservatively.
  virtual void declare_deps(Deps&) const {}

  /// Declare optimizer-relevant facts (statelessness, purity, pass-through
  /// structure, constant drives) for liberty::opt.  The default declares
  /// nothing, which leaves the module opaque to every pass — always sound.
  virtual void declare_opt(OptTraits&) const {}

  /// Serialize all sequential state needed to resume deterministically
  /// (called between cycles by Simulator::snapshot).  Statistics are NOT
  /// part of the contract: a restored run replays behaviour, it does not
  /// rewind counters.
  virtual void save_state(StateWriter&) const {}
  /// Restore state saved by save_state, reading slots in the same order.
  virtual void load_state(StateReader&) {}

  /// Content digest of this module's saved state: digest_slots of the
  /// save_state slot sequence, streamed through a digest-only StateWriter
  /// that folds each slot as it is written (slot count last) and stores
  /// none.  Two independently constructed simulators in identical states
  /// produce identical digests — the comparison point of the differential
  /// oracle in liberty_testing.
  [[nodiscard]] std::uint64_t state_digest() const {
    StateWriter w(StateWriter::digest_only);
    save_state(w);
    return w.digest();
  }

  [[nodiscard]] liberty::StatSet& stats() noexcept { return stats_; }
  [[nodiscard]] const liberty::StatSet& stats() const noexcept {
    return stats_;
  }

  /// Current cycle (valid during simulation hooks): the cycle its
  /// netlist's scheduler is running, or last ran; 0 outside a netlist.
  [[nodiscard]] Cycle now() const noexcept { return *now_; }

  /// Ask the simulator to stop after the current cycle completes.
  void request_stop() noexcept;

 protected:
  /// The netlist this module was added to (nullptr before Netlist::add).
  [[nodiscard]] Netlist* netlist() const noexcept { return netlist_; }

  /// Create ports.  Called from constructors of concrete modules.
  Port& add_in(std::string name, AckMode default_ack = AckMode::Managed,
               std::size_t min_conns = 0,
               std::size_t max_conns = std::numeric_limits<std::size_t>::max());
  Port& add_out(std::string name, std::size_t min_conns = 0,
                std::size_t max_conns = std::numeric_limits<std::size_t>::max());

 private:
  friend class Netlist;

  static constexpr Cycle kNoCycle = 0;

  std::string name_;
  ModuleId id_ = 0;
  const Cycle* now_ = &kNoCycle;  // the netlist's cycle once added to one
  Netlist* netlist_ = nullptr;
  std::vector<std::unique_ptr<Port>> ports_;
  liberty::StatSet stats_;
};

}  // namespace liberty::core
