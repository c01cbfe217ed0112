// liberty::gen — compiled netlist execution.
//
// CompiledScheduler lowers the elaborated netlist to the bytecode of
// bytecode.hpp once at construction and thereafter runs each cycle by
// executing the three tapes.  It derives from AnalyzedScheduler so the
// schedule graph and its flat walk, SCC fixed-point iteration (run_scc),
// fused-chain sweeps, fault seams, the hook-free resolve mode and the
// end-of-resolve step are shared
// with the static scheduler — the tapes replace only the per-cycle
// interpretation of that structure (virtual hook dispatch, per-node driver
// lookups, plan-fact branches), which is where the steady-state time goes.
//
// Semantics: the resolve tape mirrors StaticScheduler::resolve_cycle exactly
// (same walk, same react-then-default policy per node, same end of resolve),
// so the compiled scheduler inherits the static scheduler's bit-identity
// with the dynamic baseline.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "liberty/core/scheduler.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/gen/bytecode.hpp"

namespace liberty::gen {

class CompiledScheduler final : public liberty::core::AnalyzedScheduler {
 public:
  explicit CompiledScheduler(liberty::core::Netlist& netlist);

  [[nodiscard]] std::string_view kind_name() const override {
    return "compiled";
  }

  [[nodiscard]] const Program& program() const noexcept { return program_; }

  /// Human-readable listing of the lowered program, one instruction per
  /// line with symbolic operands (lss_run --dump-bytecode; golden tests).
  [[nodiscard]] std::string disassemble() const;

  void visit_counters(const CounterVisitor& visit) const override;

 private:
  void start_phase() override;
  void resolve_cycle() override;
  void update_phase() override;

  void lower();
  void exec(const std::vector<Instr>& tape);

  Program program_;
};

/// Make SchedulerKind::Compiled constructible: installs this backend's
/// factory into liberty_core's registration seam on the first call; later
/// calls, from any thread, write nothing.  Front ends call it explicitly
/// before building a Simulator because core cannot link against gen (gen
/// depends on the component libraries) and static-library global
/// initializers are not reliably pulled in.
void ensure_registered();

}  // namespace liberty::gen
