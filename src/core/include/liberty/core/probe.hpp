// KernelProbe: the kernel-side half of the observability layer.
//
// The schedulers are the only code that knows when a cycle phase starts or
// how long each module's react() took — but the kernel must not depend on
// exporters or aggregation policy.  KernelProbe is the seam: a
// branch-on-null observer interface the scheduler invokes at well-defined
// points of the cycle.  liberty::obs implements it (CycleProfiler,
// ChromeTraceWriter); the kernel only ever sees this abstract interface.
//
// Cost contract: with no probe installed every instrumentation site is a
// single null/flag check (measured <2% on bench_scheduler, see
// docs/observability.md).  With a probe installed the kernel additionally
// reads the monotonic clock around each phase and each react() call.
//
// Threading contract: every callback fires on the thread running the
// simulation, so probes may aggregate into plain fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "liberty/core/types.hpp"

namespace liberty::core {

/// The fixed per-cycle phase sequence of SchedulerBase::run_cycle (see
/// docs/scheduling.md "The per-cycle contract").
enum class SchedPhase : std::uint8_t {
  CycleStart = 0,  // Module::cycle_start on every module
  Resolve = 1,     // fixed-point resolution (the scheduler-specific part)
  Update = 2,      // Module::end_of_cycle on every module
  Commit = 3,      // transfer commit + observers + channel reset
};

inline constexpr std::size_t kSchedPhaseCount = 4;

[[nodiscard]] constexpr std::string_view phase_name(SchedPhase p) noexcept {
  switch (p) {
    case SchedPhase::CycleStart: return "cycle_start";
    case SchedPhase::Resolve: return "resolve";
    case SchedPhase::Update: return "update";
    case SchedPhase::Commit: return "commit";
  }
  return "?";
}

class KernelProbe {
 public:
  virtual ~KernelProbe() = default;

  virtual void on_cycle_begin(Cycle) {}
  virtual void on_cycle_end(Cycle) {}

  /// Every channel of every connection has resolved for this cycle, but no
  /// end_of_cycle handler has run and no transfer has been committed yet.
  /// This is the invariant-checking window (resil::Watchdog): a probe that
  /// throws here aborts the cycle *before* any module commits state, so a
  /// rollback to an earlier checkpoint replays a fault-free trajectory.
  virtual void on_cycle_resolved(Cycle) {}

  /// Phase completed; `seconds` is its wall-clock duration.  Called at the
  /// end of the phase, so an exporter can reconstruct the start time.
  virtual void on_phase(SchedPhase, Cycle, double /*seconds*/) {}

  /// Per-module react() attribution, flushed from the scheduler's buffers
  /// at the end of each cycle: `reacts[id]` invocations and `seconds[id]`
  /// wall time for module id in [0, n).  Buffers are zeroed after the
  /// call; probes accumulate across batches.
  virtual void on_module_batch(const std::uint64_t* /*reacts*/,
                               const double* /*seconds*/, std::size_t /*n*/) {
  }
};

}  // namespace liberty::core
