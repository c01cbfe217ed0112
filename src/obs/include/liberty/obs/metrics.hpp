// MetricsRegistry: one machine-readable home for every number a run
// produces.
//
// Before this subsystem existed the only reporting path was
// Netlist::dump_stats — free-text, per-module, nothing about the kernel.
// The registry federates three sources behind stable, namespaced metric
// names:
//
//   module.<instance>.<stat>     every module's StatSet (counters,
//                                accumulators, histograms with quantiles)
//   scheduler.<counter>          SchedulerBase::visit_counters — worklist
//                                pushes, fixed-point passes, sleeps...
//   profile.<...>                CycleProfiler aggregates (phase seconds,
//                                per-module react time)
//
// and exports them as a versioned JSON document (schema
// "liberty.metrics", kMetricsSchemaVersion) or flat CSV, both carrying
// run metadata (spec, scheduler, seed, git revision) so that
// artifacts from different runs are comparable without side channels.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "liberty/core/netlist.hpp"
#include "liberty/core/scheduler.hpp"

namespace liberty::obs {

inline constexpr int kMetricsSchemaVersion = 1;
inline constexpr const char* kMetricsSchemaName = "liberty.metrics";

/// Identifying metadata stamped into every export.
struct RunMeta {
  std::string tool;       // producing binary, e.g. "lss_run"
  std::string spec;       // model identity: spec path, bench name, seed tag
  std::string scheduler;  // kind_name() of the scheduler used
  std::uint64_t seed = 0;
  std::uint64_t cycles = 0;  // cycles simulated
  std::string git_rev;       // source revision, "unknown" when undetectable
};

/// Best-effort current source revision (git rev-parse); "unknown" offline.
[[nodiscard]] std::string current_git_rev();

class CycleProfiler;

class MetricsRegistry {
 public:
  struct Summary {
    std::uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    // Histogram-only quantiles (accumulators leave them at 0 and set
    // has_quantiles = false).
    bool has_quantiles = false;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  void add_counter(const std::string& name, std::uint64_t value) {
    counters_[name] = value;
  }
  void add_scalar(const std::string& name, double value) {
    scalars_[name] = value;
  }
  void add_summary(const std::string& name, const Summary& s) {
    summaries_[name] = s;
  }

  /// Federate every module's StatSet under "module.<instance>.".
  void collect_modules(const liberty::core::Netlist& netlist);
  /// Kernel introspection counters under "scheduler.".
  void collect_scheduler(const liberty::core::SchedulerBase& sched);
  /// Profiler aggregates under "profile." (module names resolved through
  /// `netlist` when provided).
  void collect_profile(const CycleProfiler& prof,
                       const liberty::core::Netlist* netlist = nullptr);

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& scalars()
      const noexcept {
    return scalars_;
  }
  [[nodiscard]] const std::map<std::string, Summary>& summaries()
      const noexcept {
    return summaries_;
  }

  /// Versioned JSON document (see docs/observability.md for the schema).
  void write_json(std::ostream& os, const RunMeta& meta) const;
  /// Flat CSV: section,name,field,value with meta.* rows first.
  void write_csv(std::ostream& os, const RunMeta& meta) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> scalars_;
  std::map<std::string, Summary> summaries_;
};

}  // namespace liberty::obs
