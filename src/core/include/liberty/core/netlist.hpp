// Netlist: owns all module instances and connections of one system model.
//
// This is the output of elaboration (whether the model was composed in C++
// or from an LSS specification) and the input to simulator construction —
// the "Customized and Interconnected Component Instances" box of the paper's
// Figure 1.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "liberty/core/connection.hpp"
#include "liberty/core/module.hpp"
#include "liberty/core/opt.hpp"
#include "liberty/core/types.hpp"

namespace liberty::core {

class Netlist {
 public:
  Netlist() = default;
  Netlist(const Netlist&) = delete;
  Netlist& operator=(const Netlist&) = delete;

  /// Construct and own a module of concrete type T.
  template <typename T, typename... Args>
  T& make(Args&&... args) {
    auto mod = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *mod;
    add(std::move(mod));
    return ref;
  }

  Module& add(std::unique_ptr<Module> m);

  /// Find a module instance by its (hierarchical) name; nullptr if absent.
  [[nodiscard]] Module* find(const std::string& name) const noexcept;
  /// As find(), but throws ElaborationError when absent.
  [[nodiscard]] Module& get(const std::string& name) const;

  /// Connect the next free endpoint of `from` to the next free endpoint of
  /// `to`.  Returns the new connection.
  Connection& connect(Port& from, Port& to);
  /// Connect specific endpoint indexes.
  Connection& connect_at(Port& from, std::size_t from_idx, Port& to,
                         std::size_t to_idx);

  /// Validate arities, install ack modes, assign ids, and call init() on
  /// every module.  Must be called exactly once, before simulation.
  void finalize();
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  [[nodiscard]] const std::vector<std::unique_ptr<Module>>& modules()
      const noexcept {
    return modules_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Connection>>& connections()
      const noexcept {
    return conns_;
  }

  [[nodiscard]] std::size_t module_count() const noexcept {
    return modules_.size();
  }
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return conns_.size();
  }

  /// True once any module has called Module::request_stop() this run.
  [[nodiscard]] bool stop_requested() const noexcept { return stop_flag_; }
  void clear_stop() noexcept { stop_flag_ = false; }
  /// Force the stop flag (Simulator::restore re-arms it from a snapshot).
  void set_stop(bool v) noexcept { stop_flag_ = v; }

  /// Structural fingerprint of the elaborated netlist: instance names,
  /// connection endpoints/refs, ack modes, and quarantine state.  Two
  /// netlists with equal hashes are state-compatible for checkpoint
  /// restore (same module order, same save/load layout *shape*).  The hash
  /// deliberately avoids typeid names so it is stable across compilers —
  /// a durable checkpoint written by one build loads in another.
  [[nodiscard]] std::uint64_t topology_hash() const;

  /// Dump all module statistics, one line per stat, prefixed by instance
  /// name.
  void dump_stats(std::ostream& os) const;

  /// Export the structure as a Graphviz DOT graph (the hook the paper's
  /// "interactive system visualizer" would consume).
  void write_dot(std::ostream& os) const;

  /// Quarantine a module (resil recovery): its handlers are never invoked
  /// again and every one of its Managed input connections falls back to the
  /// paper's default control semantics (AutoAccept — the kernel accepts
  /// everything offered); its output offers default to "offers nothing".
  /// Schedulers cache quarantine flags at construction, so this must be
  /// followed by a simulator rebuild — and any optimizer plan derived from
  /// the module's declared behaviour must be dropped first (quarantine
  /// invalidates constprop/fusion/gating facts about this module).  See
  /// docs/resilience.md for when this policy is unsound.
  void quarantine(Module& m);
  [[nodiscard]] bool is_quarantined(ModuleId id) const noexcept {
    return id < quarantined_.size() && quarantined_[id] != 0;
  }
  [[nodiscard]] std::size_t quarantined_count() const noexcept;

  /// Attach (or clear, with nullptr) the optimizer's plan.  Must be done
  /// before any scheduler is constructed; schedulers capture the plan at
  /// construction.  Null plan == simulate the netlist exactly as written.
  void set_opt_plan(std::shared_ptr<const OptPlan> plan) noexcept {
    opt_plan_ = std::move(plan);
  }
  [[nodiscard]] const OptPlan* opt_plan() const noexcept {
    return opt_plan_.get();
  }

 private:
  friend class SchedulerBase;

  bool finalized_ = false;
  bool stop_flag_ = false;
  std::vector<std::unique_ptr<Module>> modules_;
  std::unordered_map<std::string, Module*> by_name_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<char> quarantined_;  // by ModuleId; empty until first use
  std::shared_ptr<const OptPlan> opt_plan_;
};

}  // namespace liberty::core
