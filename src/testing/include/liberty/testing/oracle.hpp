// Differential oracle: prove N schedulers bit-identical on one netlist.
//
// The reference (dynamic -O0) scheduler defines the semantics; every
// candidate (by default static and compiled -O0/-O2) must match it
// exactly.  The oracle runs in two phases:
//
//   1. Coarse, streaming: each simulator runs the full cycle budget alone.
//      At every `snapshot_every`-cycle window boundary it folds the
//      window's completed transfers into a trace hash and the kernel state
//      into a state digest (Simulator::state_digest).  The reference keeps
//      only those per-window pairs and its final stats dump; each candidate
//      compares window by window as it runs and stops at its first
//      mismatch.  No snapshot outlives its window, so memory does not grow
//      with the cycle budget.  A candidate that agrees in every window must
//      also produce the same stats dump.
//   2. Bisect: the first disagreeing window brackets the bug.  Each side
//      is replayed from cycle 0 to the window's start (the last agreeing
//      boundary), snapshotted there, and restored into a fresh simulator
//      (exercising Simulator::restore for real); the two are then replayed
//      in lockstep — one cycle at a time, comparing the transfer record and
//      every module's state digest — until the exact divergent cycle and
//      the differing modules fall out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/core/registry.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/testing/netspec.hpp"

namespace liberty::resil {
struct FaultPlan;
}

namespace liberty::testing {

struct Candidate {
  liberty::core::SchedulerKind kind = liberty::core::SchedulerKind::Static;
  /// Must be 0: the kernel is single-threaded and run_oracle rejects any
  /// other value.  Kept so existing `Candidate{kind, 0, level}`
  /// initializers still compile.
  unsigned threads = 0;
  /// Optimizer level applied to the candidate's netlist (opt::optimize)
  /// before its simulator is built.  The dynamic -O0 reference defines the
  /// semantics, so a nonzero level here proves the optimizer preserves
  /// transfer traces, state digests and stats bit-for-bit.
  int opt_level = 0;

  [[nodiscard]] std::string describe() const;
};

struct OracleConfig {
  /// Candidates checked against the dynamic reference.  Empty selects the
  /// default battery: static, compiled -O0 and compiled -O2.
  std::vector<Candidate> candidates;
  /// Window length in cycles: the coarse phase compares a trace hash and a
  /// state digest at every boundary (0 selects 16).
  liberty::core::Cycle snapshot_every = 16;
  bool bisect = true;  // phase 2 on divergence
  /// Attach a CycleProfiler to every coarse-phase simulator.  The probes
  /// must be invisible to simulation; running the oracle with this set
  /// proves profiling does not perturb results.
  bool profile = false;
  /// Inject this fault plan into every simulator the oracle builds
  /// (coarse and bisect phases alike).  Plans whose specs are restricted
  /// to one scheduler kind perturb only that kind, so the oracle must
  /// catch and bisect the induced divergence — the differential
  /// acceptance test for the resil injector.  Must outlive the call.
  const liberty::resil::FaultPlan* fault_plan = nullptr;
};

/// The oracle's verdict on one (spec, candidate) divergence.
struct Divergence {
  Candidate candidate;
  liberty::core::Cycle first_divergent_cycle = 0;
  std::vector<std::string> modules;  // whose state digests differ first
  std::string detail;                // human-readable report
};

struct OracleResult {
  bool ok = true;
  std::vector<Divergence> divergences;  // one per failing candidate

  [[nodiscard]] std::string report() const;
};

/// Run `spec` under the reference and every candidate; compare.
[[nodiscard]] OracleResult run_oracle(
    const NetSpec& spec, const liberty::core::ModuleRegistry& registry,
    const OracleConfig& config = {});

}  // namespace liberty::testing
