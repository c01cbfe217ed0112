// FaultInjector: turns a FaultPlan into deterministic perturbations at the
// kernel's fault seam (liberty/core/fault.hpp).
//
// Determinism is the whole design: every mapping an injector applies is a
// pure function of (connection id, plan seed, current cycle, incoming
// signal) — never of the incoming *value* and never of scheduler state.
// Since the kernel guarantees each channel resolves to one value per cycle
// regardless of scheduler, and the mapping rewrites that resolution
// input-independently, the faulty trajectory is bit-identical under
// every scheduler at every -O level (test_resil
// proves the full matrix).  The -O2 quiescence gate may cache and replay a
// faulted channel's post-mapping value; replay re-drives it through the
// seam, maps it again to the same per-cycle substitute, and stays
// idempotent for exactly this reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/core/fault.hpp"
#include "liberty/resil/fault_plan.hpp"

namespace liberty::core {
class Simulator;
}

namespace liberty::resil {

/// One fault site the injector actually perturbed during a run.
struct InjectionSite {
  FaultClass cls = FaultClass::DropAck;
  core::ConnId connection = 0;
  std::string module;             // HandlerThrow only
  core::Cycle first_cycle = 0;    // first cycle a mapping changed anything
  std::uint64_t applications = 0; // mapping invocations (informational: the
                                  // count varies with scheduler re-drives;
                                  // first_cycle and the trace do not)
};

class FaultInjector final : public core::FaultHook {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Bind to a simulator: record its scheduler kind (plans may restrict
  /// specs to one kind), size the per-connection dispatch tables, and
  /// install this hook on the scheduler.  Call once per simulator; the
  /// injector must outlive it (or be uninstalled first).
  void install(core::Simulator& sim);

  // core::FaultHook
  void begin_cycle(core::Cycle cycle) override;
  void filter_forward(const core::Connection& c, Tristate& enable,
                      Value& data) override;
  void filter_backward(const core::Connection& c, Tristate& ack) override;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Mask (deactivate) every unmasked spec whose onset is at or before
  /// `cycle` — the rollback-and-retry policy's "fault site masked" step.
  /// Returns how many specs were masked.  Call between cycles only.
  int mask_through(core::Cycle cycle);
  /// Mask every spec targeting module `name` (handler faults) — the
  /// quarantine policy's companion.  Returns how many were masked.
  int mask_module(const std::string& name);
  /// Mask every channel spec on connection `id`.
  int mask_connection(core::ConnId id);

  /// Environment-fault query (DurableSupervisor, at spill time): does an
  /// unmasked spec of env class `cls` afflict `cycle` under the bound
  /// scheduler?  Records the application when it does.  Call between
  /// cycles only (main thread).
  [[nodiscard]] bool env_fault_fires(FaultClass cls, core::Cycle cycle);

  /// Sites that actually fired so far (attribution for reports).
  [[nodiscard]] std::vector<InjectionSite> sites() const;

 private:
  void rebuild_tables();
  void note_applied(std::int32_t spec_index);
  void note_applied_at(std::int32_t spec_index, core::Cycle cycle);
  [[nodiscard]] Value substitute(core::ConnId conn, core::Cycle cycle) const;

  FaultPlan plan_;
  std::string sched_kind_;  // kind_name() of the bound scheduler
  std::size_t conn_count_ = 0;
  // Per-connection dispatch: index of the governing spec, -1 for none.  One
  // spec per (connection, direction) — the first active spec wins, matching
  // plan order.
  std::vector<std::int32_t> fwd_spec_;
  std::vector<std::int32_t> bwd_spec_;
  std::vector<std::int32_t> handler_specs_;  // active HandlerThrow indices
  core::Cycle cycle_ = 0;
  // Per-spec application count and first-hit cycle.
  std::vector<std::uint64_t> applications_;
  std::vector<std::uint64_t> first_cycle_;
};

}  // namespace liberty::resil
