// Checkpoint/rollback recovery: the policy layer that turns detection into
// continued service.
//
// A Supervisor owns the simulate-detect-recover loop: it builds the
// simulator, wires in an optional FaultInjector and Watchdog, takes a
// kernel snapshot every `checkpoint_every` cycles, and reacts to aborted
// cycles according to a RecoveryPolicy:
//
//   abort       re-throw semantics: record the error and stop (the
//               baseline "fail fast" behaviour)
//   rollback    mask every fault site whose onset has been reached, rewind
//               to the latest checkpoint, and replay.  Detection happens
//               pre-commit (watchdog) or pre-cycle (injected handler
//               faults), so checkpoints hold fault-free state and the
//               replayed run is bit-identical to a never-faulted one —
//               test_resil proves trace hashes and state digests match.
//   quarantine  blame a module (the handler that threw, or the consumer of
//               the faulted connection), swap it to the paper's default
//               control semantics via Netlist::quarantine, rebuild the
//               simulator, and resume from the checkpoint.  The run
//               completes but is *not* trace-identical — see
//               docs/resilience.md for when this is acceptable.
//
// Soundness note: rollback is only bit-exact when every fault is detected
// at its first observable effect (watchdog with a recorded baseline, or
// faults that abort on their own).  An undetected fault that survives past
// a checkpoint is baked into that checkpoint; rollback then reproduces it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "liberty/core/simulator.hpp"
#include "liberty/core/types.hpp"
#include "liberty/resil/watchdog.hpp"

namespace liberty::resil {

class FaultInjector;

enum class RecoveryPolicy : std::uint8_t { Abort, RollbackRetry, Quarantine };

/// Stable wire name ("abort", "rollback", "quarantine").
[[nodiscard]] std::string_view policy_name(RecoveryPolicy p) noexcept;
/// Inverse of policy_name; throws liberty::Error on unknown names.
[[nodiscard]] RecoveryPolicy policy_from_name(std::string_view name);

struct SupervisorConfig {
  core::SchedulerKind scheduler = core::SchedulerKind::Static;
  core::Cycle checkpoint_every = 64;  // 0 = only the initial checkpoint
  RecoveryPolicy policy = RecoveryPolicy::Abort;
  int max_recoveries = 4;          // rollbacks + quarantines before giving up
  std::uint64_t iteration_cap = 0;  // 0 = scheduler default
};

struct RecoveryReport {
  bool completed = false;
  core::Cycle cycles = 0;  // simulated cycles at exit
  int rollbacks = 0;
  int quarantines = 0;
  std::vector<std::string> events;  // human-readable recovery log
  std::string error;                // terminal error when !completed
  std::vector<std::uint64_t> trace_hashes;  // per-cycle transfer hashes
  std::uint64_t state_digest = 0;           // final KernelSnapshot digest

  [[nodiscard]] std::uint64_t trace_digest() const {
    return fold_trace(trace_hashes);
  }
  [[nodiscard]] std::string summary() const;
};

class Supervisor {
 public:
  /// `injector` and `watchdog` are optional and must outlive the
  /// supervisor.  The watchdog is attached with throw-on-violation forced
  /// on — detection must abort the cycle pre-commit or rollback would
  /// replay the fault.
  Supervisor(core::Netlist& netlist, SupervisorConfig cfg,
             FaultInjector* injector = nullptr, Watchdog* watchdog = nullptr);
  virtual ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Run up to `cycles` cycles under supervision (early stop via
  /// Module::request_stop counts as completion).
  [[nodiscard]] RecoveryReport run(core::Cycle cycles);

  [[nodiscard]] core::Simulator* simulator() noexcept { return sim_.get(); }

 protected:
  // Extension seams for durable supervision (resil/durable.hpp).  All three
  // run between cycles on the main thread, with sim_ built and valid.
  /// After build_simulator(), before the initial checkpoint — a durable
  /// subclass restores the newest valid on-disk checkpoint here.
  virtual void on_run_start(RecoveryReport& rep) { (void)rep; }
  /// After every in-memory take_checkpoint() — a durable subclass spills
  /// checkpoint_ to disk here.
  virtual void on_checkpoint(RecoveryReport& rep) { (void)rep; }
  /// After every successfully committed cycle (not after rollbacks).
  virtual void on_cycle_committed(core::Cycle now) { (void)now; }

  void build_simulator();
  void take_checkpoint();
  /// React to an aborted cycle at `at`; returns false to give up.
  [[nodiscard]] bool recover(RecoveryReport& rep, core::Cycle at,
                             const std::string& why);

  core::Netlist& netlist_;
  SupervisorConfig cfg_;
  FaultInjector* injector_;
  Watchdog* watchdog_;
  TraceRecorder recorder_;
  std::unique_ptr<core::Simulator> sim_;
  core::KernelSnapshot checkpoint_;
};

}  // namespace liberty::resil
