// The benchmark's three workloads (README.md in this directory).
//
// A workload generates every input from its seed in prepare(), together
// with an untimed dynamic -O0 reference of the same input, then performs
// operations: one pass from generated input to checked output.  All
// operations of one run repeat the same input, so their medians are
// steady and their deterministic counters must repeat exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  bool tiny = false;  // self-test sizes
  /// Flip one bit of the reference digests: every operation must then be
  /// counted as failed (the self-test's check of the correctness gate).
  bool corrupt_reference = false;
  std::string git_rev;  // stamped into every metrics export
};

/// One operation's measurements.
struct OpRecord {
  bool ok = true;
  std::string error;  // first failure, when !ok

  double wall_s = 0.0;   // generated input -> checked output
  double setup_s = 0.0;  // input -> simulators ready to step
  double cpu_s = 0.0;    // process CPU over the operation
  double sim_s = 0.0;    // host seconds inside simulation
  std::uint64_t sim_cycles = 0;

  std::map<std::string, double> stage_s;  // per-layer stage seconds
  /// Deterministic work counters, optimizer counts and model invariants.
  std::map<std::string, double> counts;
  /// Traced operations only: CycleProfiler phase and module-kind figures,
  /// and the snapshot share.
  std::map<std::string, double> profile;
  /// Traced operations only: span self times, keyed by span name.
  std::map<std::string, double> self_s;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the inputs and the reference (untimed).
  virtual void prepare() = 0;
  /// One operation.  With `traced`, CycleProfiler probes ride along and
  /// the operation's spans are recorded on `tracer`.
  virtual OpRecord run_op(Tracer& tracer, bool traced) = 0;
  /// Traced runs only: attribution experiments outside the timed
  /// operation (sweep: the snapshot share).  Adds to `rec.profile`.
  virtual void attribute(OpRecord& /*rec*/) {}
};

/// "rack", "lanes" or "sweep"; nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Options& opts);

}  // namespace perfbench
