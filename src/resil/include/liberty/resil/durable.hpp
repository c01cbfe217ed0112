// DurableSupervisor: checkpoint/rollback supervision that survives process
// death (docs/resilience.md, "Durable checkpoints").
//
// The in-memory Supervisor already proves rollback bit-exactness; this
// layer spills the same KernelSnapshot — serialized by core/checkpoint.hpp
// — to a run directory and can cold-start a *fresh* simulator from the
// newest valid file.  Design rules, in priority order:
//
//   never an error     a corrupt, torn, truncated, version-skewed, or
//                      topology-mismatched checkpoint is skipped with a
//                      diagnostic; an empty or missing directory means
//                      "start from cycle 0".  Durability failures (ENOSPC,
//                      unserializable payloads) degrade the run to
//                      undurable, they do not fail it.
//   atomic publish     tmp file + fsync + rename + directory fsync; a
//                      reader never observes a half-written checkpoint
//                      under POSIX rename atomicity, and a crash mid-write
//                      leaves only a .tmp the scanner ignores.
//   bounded retention  only the newest `keep_last` checkpoints survive a
//                      spill (plus whatever a previous process left — the
//                      pruner removes those too).
//   bit-identity       the file embeds the per-cycle trace-hash prefix, so
//                      a resumed run's final trace digest equals the
//                      uninterrupted run's (the fork/SIGKILL harness in
//                      test_durable proves it for every scheduler at
//                      -O0/-O2, including the rack scenario).
//
// The torn-write and ENOSPC *injection* paths live in the FaultInjector
// (FaultClass::TornCheckpoint / CheckpointEnospc): when the bound injector
// says the fault afflicts this spill cycle, the write is truncated at a
// seeded length or skipped entirely — deterministically, so the durability
// machinery itself is testable under the same seeded-fault discipline as
// the simulated system.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/core/checkpoint.hpp"
#include "liberty/resil/recovery.hpp"

namespace liberty::obs {
class MetricsRegistry;
}

namespace liberty::resil {

struct DurableConfig {
  std::string dir;             // run directory; created if missing
  std::size_t keep_last = 4;   // retention: newest K checkpoint files
  bool resume = false;         // cold-start from the newest valid file
  std::uint64_t aux_seed = 0;  // workload/plan seed echoed into the file
  /// Crash-harness aid: raise(SIGKILL) once this many cycles have
  /// committed (0 = off).  Exposed as lss_run/rack_sim --kill-at.
  core::Cycle kill_at = 0;
};

struct DurableStats {
  std::uint64_t checkpoints_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t resumes = 0;          // successful cold-starts from disk
  std::uint64_t corrupt_skipped = 0;  // rejected candidate files
  std::uint64_t write_failures = 0;   // failed/suppressed spills
};

/// One file considered during a resume scan.
struct CheckpointCandidate {
  std::string path;
  std::uint64_t bytes = 0;
  core::Cycle cycle = 0;    // from the filename (valid even when rejected)
  bool valid = false;
  std::string reason;       // why rejected; empty when valid
};

/// Scan `dir` for checkpoint files, newest-first, validating each against
/// `topology_hash` (pass 0 to skip the topology check) and rejecting older
/// formats, whose trace hashes this build cannot continue.  Returns an empty
/// list for a missing or empty directory.  Never throws.
[[nodiscard]] std::vector<CheckpointCandidate> scan_checkpoints(
    const std::string& dir, std::uint64_t topology_hash);

/// Human-readable rendering of a resume scan — the shared message path of
/// lss_run --resume and rack_sim --resume diagnostics: every candidate
/// file found and why it was (or wasn't) usable.
[[nodiscard]] std::string describe_candidates(
    const std::string& dir, const std::vector<CheckpointCandidate>& list);

class DurableSupervisor : public Supervisor {
 public:
  DurableSupervisor(core::Netlist& netlist, SupervisorConfig cfg,
                    DurableConfig durable, FaultInjector* injector = nullptr,
                    Watchdog* watchdog = nullptr);

  [[nodiscard]] const DurableStats& stats() const noexcept { return stats_; }
  /// Durability diagnostics (skipped files, suppressed writes) — also
  /// appended to RecoveryReport::events as they happen.
  [[nodiscard]] const std::vector<std::string>& diagnostics() const noexcept {
    return diagnostics_;
  }
  /// The cycle the run resumed from (0 when starting fresh).
  [[nodiscard]] core::Cycle resumed_from() const noexcept {
    return resumed_cycle_;
  }

  /// Export the stable resil.supervisor.* counters.
  void export_metrics(obs::MetricsRegistry& reg) const;

 protected:
  void on_run_start(RecoveryReport& rep) override;
  void on_checkpoint(RecoveryReport& rep) override;
  void on_cycle_committed(core::Cycle now) override;

 private:
  void spill(RecoveryReport* rep);
  void prune();
  void note(RecoveryReport* rep, std::string msg);

  DurableConfig durable_;
  DurableStats stats_;
  std::vector<std::string> diagnostics_;
  core::Cycle resumed_cycle_ = 0;
  std::int64_t last_spilled_cycle_ = -1;
  bool encode_failed_ = false;  // one diagnostic, then stay quiet
};

}  // namespace liberty::resil
