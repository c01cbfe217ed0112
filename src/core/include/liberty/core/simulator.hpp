// Simulator: drives a finalized netlist cycle by cycle.
//
// This is the "Simulator Executable" of the paper's Figure 1 — except that
// where the original LSE emitted C source and compiled it, we construct the
// executable simulator in-process from the elaborated netlist (see
// DESIGN.md, "Substitutions").
#pragma once

#include <memory>
#include <ostream>
#include <string_view>
#include <vector>

#include "liberty/core/netlist.hpp"
#include "liberty/core/scheduler.hpp"
#include "liberty/core/state.hpp"
#include "liberty/core/types.hpp"

namespace liberty::core {

enum class SchedulerKind { Dynamic, Static, Compiled, Native };

inline constexpr SchedulerKind kSchedulerKinds[] = {
    SchedulerKind::Dynamic, SchedulerKind::Static, SchedulerKind::Compiled,
    SchedulerKind::Native};

/// The name a scheduler of this kind reports through kind_name():
/// "dynamic", "static", "compiled" or "native".
[[nodiscard]] std::string_view scheduler_kind_name(SchedulerKind kind) noexcept;

/// A between-cycles image of one simulator: the cycle counter, the stop
/// flag, and every module's save_state slots.  Snapshots are cheap (values
/// share immutable payloads by pointer) and belong to the netlist shape
/// they were taken from — restoring into a different netlist is an error.
struct KernelSnapshot {
  Cycle cycle = 0;
  bool stop_requested = false;
  std::vector<std::vector<Value>> module_state;  // indexed by ModuleId

  /// Combined content digest of all module states (oracle comparisons).
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = kFnv1aInit;
    for (const auto& slots : module_state) {
      h = fnv1a_mix(h, digest_slots(slots));
    }
    return h;
  }
};

/// Parse a scheduler name ("dyn"/"dynamic", "static", "comp"/"compiled",
/// "native"); throws ElaborationError naming the valid
/// spellings on anything else.  Shared by lss_run, bench_util and any
/// other front end exposing the scheduler knob.
[[nodiscard]] SchedulerKind scheduler_kind_from_name(std::string_view name);

/// Factory seams for SchedulerKind::Compiled and SchedulerKind::Native:
/// the core library cannot depend on liberty_gen (gen depends on the
/// component libraries, which depend on core), so the gen library
/// registers its scheduler constructors here and Simulator looks them up.
/// Front ends that want either backend link liberty_gen and call
/// liberty::gen::ensure_registered() before constructing simulators.  The
/// native factory is registered only when the build carries
/// LIBERTY_NATIVE_CODEGEN; SchedulerKind::Native with no native factory
/// degrades to the compiled factory with a one-time stderr notice.
using CompiledSchedulerFactory =
    std::unique_ptr<SchedulerBase> (*)(Netlist& netlist);
void set_compiled_scheduler_factory(CompiledSchedulerFactory factory);
[[nodiscard]] CompiledSchedulerFactory compiled_scheduler_factory();
using NativeSchedulerFactory =
    std::unique_ptr<SchedulerBase> (*)(Netlist& netlist);
void set_native_scheduler_factory(NativeSchedulerFactory factory);
[[nodiscard]] NativeSchedulerFactory native_scheduler_factory();

class Simulator {
 public:
  explicit Simulator(Netlist& netlist,
                     SchedulerKind kind = SchedulerKind::Dynamic);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Cycle now() const noexcept { return now_; }
  [[nodiscard]] Netlist& netlist() noexcept { return netlist_; }
  [[nodiscard]] SchedulerBase& scheduler() noexcept { return *sched_; }

  /// Execute one cycle.
  void step() { sched_->run_cycle(now_++); }

  /// Run up to `max_cycles` cycles, stopping early when a module calls
  /// request_stop().  Returns the number of cycles executed.  A pending
  /// stop request is cleared on entry, so run() is re-entrant: calling it
  /// again after an early stop resumes the simulation (a module whose stop
  /// condition still holds will simply stop it again after one cycle).
  Cycle run(Cycle max_cycles) {
    netlist_.clear_stop();
    Cycle executed = 0;
    while (executed < max_cycles && !netlist_.stop_requested()) {
      step();
      ++executed;
    }
    // A backend holding module state outside the module objects (native
    // codegen) publishes it now, so post-run stats dumps and save_state
    // describe the simulation that actually ran.
    sched_->sync_module_state();
    return executed;
  }

  /// Capture a between-cycles snapshot of the kernel: cycle counter, stop
  /// flag, and every module's serialized state.  Must not be called from
  /// inside a simulation hook.
  [[nodiscard]] KernelSnapshot snapshot() const;

  /// Exactly snapshot().digest(), without building the snapshot: every
  /// module's save_state streams into its Module::state_digest(), so no
  /// slot is stored.  Same calling rule as snapshot().
  [[nodiscard]] std::uint64_t state_digest() const;

  /// Rewind the simulator to `snap`.  Every module's load_state must
  /// consume exactly the slots its save_state produced; statistics and
  /// cumulative transfer counts are NOT rewound (replay reproduces
  /// behaviour, not counters).  Throws SimulationError on a module-count
  /// mismatch or a save/load protocol violation.
  void restore(const KernelSnapshot& snap);

  /// Attach an observer called for every completed transfer.
  void observe_transfers(SchedulerBase::TransferObserver obs) {
    sched_->add_transfer_observer(std::move(obs));
  }

  /// Install (or clear, with nullptr) the observability probe on the
  /// underlying scheduler (see liberty/core/probe.hpp).  Probes observe;
  /// they cannot perturb simulation results — the fuzz oracle verifies
  /// schedulers stay bit-identical with profiling enabled.
  void set_probe(KernelProbe* probe) noexcept { sched_->set_probe(probe); }

  /// Install (or clear, with nullptr) the deterministic fault-injection
  /// hook on the underlying scheduler (liberty/core/fault.hpp; implemented
  /// by liberty::resil::FaultInjector).  Unlike probes, fault hooks perturb
  /// the simulation — that is their purpose — but identically under every
  /// scheduler and optimization level.
  void set_fault_hook(FaultHook* hook) { sched_->set_fault_hook(hook); }

  /// Log every transfer to `os` (a minimal textual waveform for debugging
  /// and for the visualizer integration the paper anticipates).
  void trace_transfers(std::ostream& os);

 private:
  Netlist& netlist_;
  std::unique_ptr<SchedulerBase> sched_;
  Cycle now_ = 0;
};

}  // namespace liberty::core
