// Watchdog: runtime invariant checking over a live simulation.
//
// The injector (injector.hpp) breaks the 3-signal contract on purpose; the
// watchdog is the matching detector.  It rides the kernel's observability
// seam (core::KernelProbe) and checks, inside the on_cycle_resolved window
// — every channel resolved, nothing committed yet — three invariant
// families:
//
//   protocol     on every *ungated AutoAccept* connection the kernel owns
//                the ack and drives ack := enable, so acked() != enabled()
//                is impossible in a healthy run.  (Managed connections are
//                exempt: a consumer may legitimately queue an ack before
//                the offer resolves, so ack-without-offer proves nothing
//                there — see docs/resilience.md.)
//   divergence   the cycle's completed transfers, hashed in connection-id
//                order, must match a recorded fault-free baseline.  This is
//                what catches data-plane faults (corrupt_data, drop_enable,
//                stuck_channel) that never violate the handshake protocol.
//   livelock     a wall-clock budget per cycle; a cycle that exceeds it is
//                reported (fixed-point *non-convergence* is the scheduler's
//                iteration cap throwing — classified via
//                note_kernel_error).
//
// Because on_cycle_resolved fires before any end_of_cycle handler commits
// state, a watchdog configured to throw aborts the cycle pre-commit: every
// earlier checkpoint still holds fault-free state, which is what makes
// rollback recovery (recovery.hpp) bit-exact.
//
// The watchdog is a *decorator*: set_next() chains another probe (e.g. the
// obs CycleProfiler, or a TraceRecorder) behind it, so observability and
// invariant checking compose on the kernel's single probe slot.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "liberty/core/probe.hpp"
#include "liberty/core/state.hpp"
#include "liberty/core/types.hpp"

namespace liberty::core {
class Connection;
class Netlist;
class Simulator;
}  // namespace liberty::core

namespace liberty::obs {
class MetricsRegistry;
}

namespace liberty::resil {

// --- Shared transfer-trace hashing -----------------------------------------
//
// One definition used everywhere a trace is compared: the watchdog baseline,
// the recovery supervisor's report, lss_run --digest, and test_resil.  Two
// runs have identical behaviour iff their per-cycle hashes match.

/// Fold one completed transfer (connection id + payload content) into a
/// running FNV-1a hash.
[[nodiscard]] std::uint64_t mix_transfer(std::uint64_t h,
                                         const core::Connection& c);

/// Hash every completed transfer of the current cycle in connection-id
/// order.  Valid only while channels are resolved (the on_cycle_resolved
/// window) — after commit the channels are reset.
[[nodiscard]] std::uint64_t hash_resolved_transfers(
    const core::Netlist& netlist);

/// Fold a per-cycle hash sequence into a single run digest.
[[nodiscard]] std::uint64_t fold_trace(
    const std::vector<std::uint64_t>& hashes);

// --- Probe chaining ---------------------------------------------------------

/// KernelProbe that forwards every callback to an optional next probe.
/// Watchdog and TraceRecorder derive from this so both can sit anywhere in
/// a probe chain on the kernel's single probe slot.
class ChainedProbe : public core::KernelProbe {
 public:
  void set_next(core::KernelProbe* next) noexcept { next_ = next; }
  [[nodiscard]] core::KernelProbe* next() const noexcept { return next_; }

  void on_cycle_begin(core::Cycle c) override {
    if (next_ != nullptr) next_->on_cycle_begin(c);
  }
  void on_cycle_end(core::Cycle c) override {
    if (next_ != nullptr) next_->on_cycle_end(c);
  }
  void on_cycle_resolved(core::Cycle c) override {
    if (next_ != nullptr) next_->on_cycle_resolved(c);
  }
  void on_phase(core::SchedPhase p, core::Cycle c, double s) override {
    if (next_ != nullptr) next_->on_phase(p, c, s);
  }
  void on_module_batch(const std::uint64_t* reacts, const double* seconds,
                       std::size_t n) override {
    if (next_ != nullptr) next_->on_module_batch(reacts, seconds, n);
  }

 protected:
  core::KernelProbe* next_ = nullptr;
};

/// Probe that records one transfer hash per cycle (indexed by cycle, so a
/// replay after rollback overwrites the aborted attempt's entries).
class TraceRecorder final : public ChainedProbe {
 public:
  explicit TraceRecorder(const core::Netlist& netlist) : netlist_(&netlist) {}

  void on_cycle_resolved(core::Cycle cycle) override;

  [[nodiscard]] const std::vector<std::uint64_t>& hashes() const noexcept {
    return hashes_;
  }
  [[nodiscard]] std::vector<std::uint64_t> take() && {
    return std::move(hashes_);
  }
  /// Drop entries at cycle >= `cycle` (rollback truncation).
  void truncate(core::Cycle cycle);
  void clear() { hashes_.clear(); }
  /// Seed the per-cycle hash prefix from a durable checkpoint, so a
  /// resumed run reproduces the uninterrupted run's full trace digest.
  void preload(std::vector<std::uint64_t> prefix) {
    hashes_ = std::move(prefix);
  }

 private:
  const core::Netlist* netlist_;
  std::vector<std::uint64_t> hashes_;
};

// --- The watchdog -----------------------------------------------------------

struct WatchdogConfig {
  bool protocol_checks = true;   // ungated AutoAccept ack==enable invariant
  double cycle_wall_budget = 0.0;  // seconds per cycle; 0 disables livelock
  bool throw_on_violation = false;  // abort the cycle pre-commit (recovery)
  std::size_t max_diagnostics = 64;  // stored; further ones only counted
};

struct Diagnostic {
  enum class Kind : std::uint8_t {
    Protocol,        // 3-signal invariant broken on a kernel-owned ack
    Divergence,      // transfer trace departs from fault-free baseline
    NonConvergence,  // fixed point hit the scheduler's iteration cap
    HandlerFault,    // a module handler threw (injected or real)
    Livelock,        // cycle exceeded the wall-clock budget
    KernelError,     // any other kernel exception routed through us
  };
  static constexpr std::size_t kKindCount = 6;

  Kind kind = Kind::Protocol;
  core::Cycle cycle = 0;
  std::string module;      // blamed module instance ("" when unknown)
  std::string connection;  // blamed connection describe() ("" when n/a)
  std::string detail;

  [[nodiscard]] std::string format() const;
};

[[nodiscard]] std::string_view diagnostic_kind_name(
    Diagnostic::Kind kind) noexcept;

class Watchdog final : public ChainedProbe {
 public:
  explicit Watchdog(WatchdogConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const WatchdogConfig& config() const noexcept { return cfg_; }
  /// The recovery supervisor forces this on: rollback is only sound when
  /// detection aborts the cycle pre-commit.
  void set_throw_on_violation(bool v) noexcept {
    cfg_.throw_on_violation = v;
  }

  /// Bind to a simulator: cache which connections carry kernel-owned acks
  /// and install this probe (chain a previously installed probe yourself
  /// via set_next before attaching).  Re-attach after any netlist surgery
  /// (quarantine) so the cache is rebuilt.
  void attach(core::Simulator& sim);

  // Baseline management for the divergence check.  Record on a fault-free
  // run, then set the taken baseline on the run under test.  Memory is
  // O(cycles x connections) words — sized for validation runs.
  void record_baseline();
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> take_baseline();
  void set_baseline(std::vector<std::vector<std::uint64_t>> baseline);
  void clear_baseline();
  [[nodiscard]] bool has_baseline() const noexcept {
    return !recording_ && !baseline_.empty();
  }

  // ChainedProbe
  void on_cycle_begin(core::Cycle cycle) override;
  void on_cycle_resolved(core::Cycle cycle) override;
  void on_cycle_end(core::Cycle cycle) override;

  /// Classify a kernel exception (scheduler iteration cap, injected handler
  /// fault, anything else) into a diagnostic.  Call from the code that
  /// catches the error — the kernel cannot call back while unwinding.
  /// Messages produced by the watchdog itself are ignored (the diagnostic
  /// was already recorded before throwing).
  void note_kernel_error(const std::string& what, core::Cycle cycle);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return total_;
  }
  [[nodiscard]] std::uint64_t count(Diagnostic::Kind kind) const noexcept {
    return by_kind_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t cycles_checked() const noexcept {
    return cycles_checked_;
  }

  /// Export counters as resil.watchdog.* (see docs/resilience.md).
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  void record(Diagnostic d);

  WatchdogConfig cfg_;
  const core::Netlist* netlist_ = nullptr;
  std::vector<std::size_t> kernel_acked_;  // ungated AutoAccept conn indexes

  bool recording_ = false;
  // baseline_[cycle][conn] = that connection's transfer hash (kFnv1aInit
  // when it did not transfer); per-conn granularity buys channel
  // attribution on divergence.
  std::vector<std::vector<std::uint64_t>> baseline_;

  std::vector<Diagnostic> diagnostics_;
  std::array<std::uint64_t, Diagnostic::kKindCount> by_kind_{};
  std::uint64_t total_ = 0;
  std::uint64_t cycles_checked_ = 0;
  std::chrono::steady_clock::time_point cycle_start_{};
  bool timing_ = false;
};

}  // namespace liberty::resil
