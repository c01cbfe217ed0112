// Differential oracle: prove N schedulers bit-identical on one netlist.
//
// The reference (dynamic -O0) scheduler defines the semantics; every
// candidate (by default static and compiled -O0/-O2) must match it
// exactly.  The oracle runs in two phases:
//
//   1. Coarse, streaming, all at once: the calling thread builds every
//      simulator (reference first, then the candidates in order), then the
//      reference and every candidate run the full cycle budget at the same
//      time, on min(hardware threads, simulators) threads, the calling
//      thread among them.  At every `snapshot_every`-cycle window boundary
//      each simulator folds the window's completed transfers into a trace
//      hash and the kernel state into a state digest
//      (Simulator::state_digest), and keeps only that pair; at the end it
//      keeps its stats dump.  No snapshot outlives its window, so memory
//      grows only by one pair per window.  After the join each candidate
//      is compared with the reference in candidate order: its first
//      disagreeing window decides the verdict, and a candidate that agrees
//      in every window must also produce the same stats dump.  There is no
//      early stop, so a divergent candidate still runs its full budget.
//      If a set-up or run throws, the first one in order (reference, then
//      the candidates) is rethrown, unless that candidate had already
//      diverged before it threw: the outcome is the one a one-at-a-time run
//      would give.
//   2. Bisect, on the calling thread, one candidate at a time: the first
//      disagreeing window brackets the bug.  Each side is replayed from
//      cycle 0 to the window's start (the last agreeing boundary),
//      snapshotted there, and restored into a fresh simulator
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
