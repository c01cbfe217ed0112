// liberty::opt — the elaboration-time netlist optimizer.
//
// Implements the paper's §2.3 claim that the simulator *constructor* "can
// perform optimizations across module boundaries that a hand-written
// simulator would get for free".  optimize() runs after elaboration
// (Netlist::finalize) and before simulator construction, analyzes the
// netlist against the facts modules declare (Module::declare_opt), and
// attaches an annotation plan (core::OptPlan) the schedulers consume.  The
// netlist itself is never mutated — every connection still resolves every
// cycle with its -O0 value, which is what keeps all three schedulers
// bit-identical on transfer traces, state digests and stats (proved by the
// liberty_testing oracle and the fuzz sweep).
//
// Passes (see docs/optimizer.md for the per-pass soundness arguments):
//
//   constprop  fixed-point constant propagation over channels.  Seeds:
//              declared constant forwards and the always-acked inputs of
//              pass-through modules with unconnected outputs.  Rules:
//              identity pass-through forwards, pass-through ack chaining,
//              and gate-free AutoAccept ack := enable.  Constant channels
//              are pre-resolved by the kernel at the top of each cycle.
//   dce        dead-logic elision.  A stateless, pure module all of whose
//              driven channels are constant can never influence anything
//              observable; the schedulers skip its hooks entirely.  Stat-
//              or VCD-observed modules are never pure, so never elided.
//   fuse       stateless-chain fusion.  Maximal linear chains of declared
//              pass-through modules collapse into one fused handler: a
//              single forward sweep resolves every member's output and a
//              single backward sweep resolves every member's ack.
//
// Every pass is individually disableable (OptOptions); -O0 disables all,
// -O1 enables constprop+dce, -O2 (the default) everything.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "liberty/core/netlist.hpp"

namespace liberty::opt {

/// Pass selection.  `level` sets the defaults; the per-pass flags are
/// applied on top (so a flag can disable one pass of -O2 or enable one
/// pass at -O0).
struct OptOptions {
  int level = 2;  // 0 = off, 1 = constprop+dce, 2 = +fuse

  bool constprop = true;
  bool dce = true;
  bool fuse = true;

  /// Options with the level folded into the per-pass flags.
  [[nodiscard]] static OptOptions for_level(int level) {
    OptOptions o;
    o.level = level;
    o.constprop = o.dce = level >= 1;
    o.fuse = level >= 2;
    return o;
  }
};

/// What the optimizer did, for reports and the lss_run one-line summary.
struct OptReport {
  int level = 0;
  std::size_t const_forwards = 0;   // constant forward channels
  std::size_t const_backwards = 0;  // constant backward channels
  std::size_t elided_modules = 0;
  std::size_t fused_chains = 0;
  std::size_t fused_modules = 0;    // members across all chains
  /// Always 0.  Kept only because perfbench (workloads.cpp) reads it into
  /// its `opt.sleepable_modules` counter; it goes with the next benchmark
  /// change.
  std::size_t sleepable_modules = 0;

  /// Detailed per-item lines (module/connection names), for --opt-report.
  std::string detail;

  [[nodiscard]] std::string summary() const;
};

/// Run the pass pipeline over a finalized netlist and attach the resulting
/// plan (Netlist::set_opt_plan).  Must run before any scheduler is
/// constructed.  With every pass disabled the plan is not attached at all
/// (schedulers take their zero-overhead -O0 path).
OptReport optimize(core::Netlist& netlist, const OptOptions& options = {});

/// Graphviz DOT dump annotated with the attached plan's conclusions
/// (elided modules dashed, fused chains grouped by color, constant
/// connections dotted).  With no plan attached
/// this degrades to the structure Netlist::write_dot prints.
void write_annotated_dot(const core::Netlist& netlist, std::ostream& os);

}  // namespace liberty::opt
