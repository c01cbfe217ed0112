// CycleProfiler: the KernelProbe implementation that turns the kernel's
// raw timing callbacks into attributed aggregates.
//
// The kernel only times (steady_clock reads around phases and individual
// react() calls — see liberty/core/probe.hpp); this class decides what
// those samples *mean*:
//
//   per phase     wall seconds and invocation count for each SchedPhase
//                 (cycle_start, resolve, update, commit)
//   per module    react() invocations and attributed seconds, indexed by
//                 ModuleId (delivered pre-aggregated via on_module_batch)
//
// A profiler may chain to a *sink* — another KernelProbe (in practice
// ChromeTraceWriter) that receives the cycle/phase events for streaming
// export.  on_module_batch is not forwarded: the profiler is where module
// attribution is aggregated.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "liberty/core/probe.hpp"

namespace liberty::obs {

class CycleProfiler : public liberty::core::KernelProbe {
 public:
  struct PhaseTotals {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };

  /// Chain a downstream probe that receives cycle/phase events (nullptr to
  /// unchain).  The sink must only be swapped while no simulation is
  /// running.
  void set_sink(liberty::core::KernelProbe* sink) noexcept { sink_ = sink; }

  // KernelProbe ------------------------------------------------------------
  void on_cycle_begin(liberty::core::Cycle c) override;
  void on_cycle_end(liberty::core::Cycle c) override;
  void on_phase(liberty::core::SchedPhase phase, liberty::core::Cycle c,
                double seconds) override;
  void on_module_batch(const std::uint64_t* reacts, const double* seconds,
                       std::size_t n) override;

  // Aggregates -------------------------------------------------------------
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  [[nodiscard]] const std::array<PhaseTotals,
                                 liberty::core::kSchedPhaseCount>&
  phases() const noexcept {
    return phases_;
  }
  /// Sum of all phase wall seconds (== profiled run_cycle wall time).
  [[nodiscard]] double total_seconds() const noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& module_reacts()
      const noexcept {
    return mod_reacts_;
  }
  [[nodiscard]] const std::vector<double>& module_seconds() const noexcept {
    return mod_seconds_;
  }

  void reset();

 private:
  liberty::core::KernelProbe* sink_ = nullptr;

  std::uint64_t cycles_ = 0;
  std::array<PhaseTotals, liberty::core::kSchedPhaseCount> phases_{};
  std::vector<std::uint64_t> mod_reacts_;
  std::vector<double> mod_seconds_;
};

}  // namespace liberty::obs
