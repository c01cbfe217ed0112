// Netlist: owns all module instances and connections of one system model.
//
// This is the output of elaboration (whether the model was composed in C++
// or from an LSS specification) and the input to simulator construction —
// the "Customized and Interconnected Component Instances" box of the paper's
// Figure 1.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <typeindex>
#include <unordered_map>
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
  /// invalidates constprop/fusion facts about this module).  See
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

  /// The T that this netlist's modules share under `key`, made on first
  /// request.  Modules elaborated from LSS cannot hand each other C++
  /// objects, so they rendezvous here (upl pipeline stages find their
  /// core's state by its "core" parameter).  The object lives as long as
  /// the netlist or its last holder, and no other netlist sees it.
  template <typename T>
  std::shared_ptr<T> shared(const std::string& key) {
    std::shared_ptr<void>& slot = shared_[{std::type_index(typeid(T)), key}];
    if (slot == nullptr) slot = std::make_shared<T>();
    return std::static_pointer_cast<T>(slot);
  }

 private:
  friend class SchedulerBase;

  bool finalized_ = false;
  bool stop_flag_ = false;
  Cycle cycle_ = 0;  // set by run_cycle; every module's now() reads it
  std::vector<std::unique_ptr<Module>> modules_;
  std::unordered_map<std::string, Module*> by_name_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<char> quarantined_;  // by ModuleId; empty until first use
  std::shared_ptr<const OptPlan> opt_plan_;
  std::map<std::pair<std::type_index, std::string>, std::shared_ptr<void>>
      shared_;
};

}  // namespace liberty::core
