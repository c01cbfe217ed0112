#include "liberty/resil/recovery.hpp"

#include <utility>

#include "liberty/resil/injector.hpp"
#include "liberty/support/error.hpp"

namespace liberty::resil {

std::string_view policy_name(RecoveryPolicy p) noexcept {
  switch (p) {
    case RecoveryPolicy::Abort: return "abort";
    case RecoveryPolicy::RollbackRetry: return "rollback";
    case RecoveryPolicy::Quarantine: return "quarantine";
  }
  return "?";
}

RecoveryPolicy policy_from_name(std::string_view name) {
  if (name == "abort") return RecoveryPolicy::Abort;
  if (name == "rollback") return RecoveryPolicy::RollbackRetry;
  if (name == "quarantine") return RecoveryPolicy::Quarantine;
  throw liberty::Error("unknown recovery policy '" + std::string(name) +
                       "' (expected abort|rollback|quarantine)");
}

std::string RecoveryReport::summary() const {
  std::string s = completed ? "completed " : "FAILED after ";
  s += std::to_string(cycles) + " cycles";
  s += ", rollbacks=" + std::to_string(rollbacks);
  s += ", quarantines=" + std::to_string(quarantines);
  if (!error.empty()) s += ", error: " + error;
  return s;
}

Supervisor::Supervisor(core::Netlist& netlist, SupervisorConfig cfg,
                       FaultInjector* injector, Watchdog* watchdog)
    : netlist_(netlist),
      cfg_(cfg),
      injector_(injector),
      watchdog_(watchdog),
      recorder_(netlist) {}

Supervisor::~Supervisor() = default;

void Supervisor::build_simulator() {
  sim_ = std::make_unique<core::Simulator>(netlist_, cfg_.scheduler);
  if (cfg_.iteration_cap != 0) {
    sim_->scheduler().set_iteration_cap(cfg_.iteration_cap);
  }
  if (injector_ != nullptr) injector_->install(*sim_);
  if (watchdog_ != nullptr) {
    // Rollback soundness requires pre-commit aborts (see class comment).
    watchdog_->set_throw_on_violation(true);
    watchdog_->set_next(&recorder_);
    watchdog_->attach(*sim_);
  } else {
    sim_->set_probe(&recorder_);
  }
}

void Supervisor::take_checkpoint() { checkpoint_ = sim_->snapshot(); }

namespace {

/// Which module does a detected abort implicate?  The first still-active
/// fault spec whose onset has been reached: its module for handler faults,
/// the faulted connection's consumer otherwise.
[[nodiscard]] std::string blame_module(const FaultInjector* injector,
                                       const core::Netlist& netlist,
                                       core::Cycle at) {
  if (injector == nullptr) return "";
  for (const FaultSpec& f : injector->plan().faults) {
    if (f.masked || f.from_cycle > at) continue;
    if (f.cls == FaultClass::HandlerThrow) return f.module;
    if (f.connection < netlist.connection_count()) {
      const core::Module* consumer =
          netlist.connections()[f.connection]->consumer();
      if (consumer != nullptr) return consumer->name();
    }
  }
  return "";
}

}  // namespace

bool Supervisor::recover(RecoveryReport& rep, core::Cycle at,
                         const std::string& why) {
  (void)why;
  if (rep.rollbacks + rep.quarantines >= cfg_.max_recoveries) {
    rep.events.push_back("recovery budget exhausted (max " +
                         std::to_string(cfg_.max_recoveries) + ")");
    return false;
  }
  switch (cfg_.policy) {
    case RecoveryPolicy::Abort:
      rep.events.push_back("policy abort: giving up");
      return false;

    case RecoveryPolicy::RollbackRetry: {
      if (injector_ == nullptr) {
        rep.events.push_back("rollback: no injector, no fault site to mask");
        return false;
      }
      const int masked = injector_->mask_through(at);
      if (masked == 0) {
        rep.events.push_back(
            "rollback: no active fault site at or before cycle " +
            std::to_string(at));
        return false;
      }
      sim_->restore(checkpoint_);
      recorder_.truncate(checkpoint_.cycle);
      ++rep.rollbacks;
      rep.events.push_back("cycle " + std::to_string(at) +
                           ": rollback to checkpoint at cycle " +
                           std::to_string(checkpoint_.cycle) + ", " +
                           std::to_string(masked) + " fault site(s) masked");
      return true;
    }

    case RecoveryPolicy::Quarantine: {
      const std::string blame = blame_module(injector_, netlist_, at);
      core::Module* m = blame.empty() ? nullptr : netlist_.find(blame);
      if (m == nullptr) {
        rep.events.push_back("quarantine: cannot attribute a module");
        return false;
      }
      if (injector_ != nullptr) {
        injector_->mask_module(blame);
        for (const auto& c : netlist_.connections()) {
          if (c->consumer() == m) injector_->mask_connection(c->id());
        }
      }
      // Quarantine invalidates any optimizer facts about this module, and
      // the quarantined trajectory legitimately departs from the fault-free
      // baseline — drop both before rebuilding.
      netlist_.set_opt_plan(nullptr);
      netlist_.quarantine(*m);
      if (watchdog_ != nullptr) watchdog_->clear_baseline();
      build_simulator();
      sim_->restore(checkpoint_);
      recorder_.truncate(checkpoint_.cycle);
      ++rep.quarantines;
      rep.events.push_back("cycle " + std::to_string(at) +
                           ": quarantined module '" + blame +
                           "', resuming from checkpoint at cycle " +
                           std::to_string(checkpoint_.cycle));
      return true;
    }
  }
  return false;
}

RecoveryReport Supervisor::run(core::Cycle cycles) {
  RecoveryReport rep;
  build_simulator();
  netlist_.clear_stop();
  on_run_start(rep);
  take_checkpoint();
  on_checkpoint(rep);

  while (sim_->now() < cycles && !netlist_.stop_requested()) {
    bool aborted = false;
    try {
      sim_->step();
    } catch (const liberty::Error& e) {
      // step() bumps the cycle counter before running the cycle, so the
      // aborted cycle is now() - 1.
      const core::Cycle at = sim_->now() > 0 ? sim_->now() - 1 : 0;
      rep.events.push_back("cycle " + std::to_string(at) +
                           ": aborted: " + e.what());
      if (watchdog_ != nullptr) watchdog_->note_kernel_error(e.what(), at);
      if (!recover(rep, at, e.what())) {
        rep.error = e.what();
        break;
      }
      aborted = true;
    }
    if (!aborted) {
      if (cfg_.checkpoint_every != 0 &&
          sim_->now() % cfg_.checkpoint_every == 0) {
        take_checkpoint();
        on_checkpoint(rep);
      }
      on_cycle_committed(sim_->now());
    }
  }

  rep.completed = rep.error.empty();
  // On a terminal abort, now() already advanced past the cycle that never
  // finished — report only completed cycles.
  rep.cycles = rep.completed ? sim_->now()
                             : (sim_->now() > 0 ? sim_->now() - 1 : 0);
  rep.trace_hashes = recorder_.hashes();
  rep.trace_hashes.resize(rep.cycles, core::kFnv1aInit);
  rep.state_digest = sim_->state_digest();
  return rep;
}

}  // namespace liberty::resil
