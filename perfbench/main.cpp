// liberty_perfbench: the repository benchmark (README.md here).
//
//   liberty_perfbench --workload rack|lanes|sweep --seed N --seconds S
//                     --trace 0|1 [--source-rev REV] [--spans FILE]
//                     [--tiny] [--corrupt-reference]
//
// Single process, single thread, closed loop with one client: operations
// run back to back on the seed's generated input until S seconds have
// passed.  The last stdout line is the result object; the line before it
// is the run report (build and host fingerprint, failures, varying
// counters, invariants).  Untraced runs (--trace 0) give the end-to-end
// metrics; traced runs (--trace 1) alternate untraced and traced
// operations and give the per-layer metrics.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "liberty/core/scheduler.hpp"
#include "liberty/gen/native.hpp"
#include "liberty/obs/json.hpp"
#include "liberty/obs/metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::median;
using perfbench::OpRecord;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},      {"setup_s", "s"},     {"sim_kcps", "kcycle/s"},
    {"cpu_s", "s"},       {"peak_rss_mb", "MiB"},
};

/// Per-layer stage self times, keyed by span name.
constexpr const char* kStages[] = {
    "scenario.trace_gen", "scenario.netspec", "testing.build",
    "lss.parse",          "lss.elaborate",    "opt.optimize",
    "core.construct",     "core.run",         "state.snapshot",
    "testing.oracle",     "bench.check",      "obs.export",
};

/// Deterministic counts: work counters, optimizer and state counts, model
/// invariants.  Read off the last traced operation.
constexpr Metric kCounts[] = {
    {"opt.fused_modules", "count"},
    {"opt.const_channels", "count"},
    {"opt.elided_modules", "count"},
    {"opt.sleepable_modules", "count"},
    {"core.react_calls", "count"},
    {"core.resolutions", "count"},
    {"core.transfers_committed", "count"},
    {"core.fixedpoint_passes", "count"},
    {"core.opt.scc_sleeps", "count"},
    {"core.opt.retired_sccs", "count"},
    {"gen.devirtualized_ops", "count"},
    {"gen.virtual_fallback_ops", "count"},
    {"state.snapshots", "count"},
    {"state.slots", "count"},
    {"model.latency_p50_cycles", "cycles"},
    {"model.latency_p99_cycles", "cycles"},
    {"model.throughput_rpkc", "req/kcycle"},
    {"model.requests_completed", "count"},
};

/// The module kinds CycleProfiler attributes react() time to on rack and
/// lanes (a kind absent from a workload reads 0).  It times react() only:
/// the kinds that work in cycle_start/end_of_cycle show in the phases.
constexpr const char* kKinds[] = {
    "nil.FabricAdapter", "ccl.Router", "ccl.Bus", "pcl.FuncMap",
};

/// Counters the -O2 quiescence gate's wall-clock calibration moves.  Where
/// the gate arms (core.opt.gated_sccs > 0), whether it keeps an SCC asleep
/// or retires, and with that how many reacts run and which tape the
/// compiled backend relowers to, depends on host timing.  These are
/// recorded and named when they vary, not required to repeat.
bool gate_dependent(const std::string& name,
                    const std::map<std::string, double>& baseline) {
  static const std::set<std::string> kGate = {
      "core.opt.scc_sleeps",   "core.opt.retired_sccs",
      "core.opt.scc_wakes",    "core.opt.replayed_resolutions",
      "core.opt.eoc_skips",    "core.react_calls",
      "gen.devirtualized_ops", "gen.virtual_fallback_ops",
      "gen.start_ops",         "gen.resolve_ops",
      "gen.commit_ops"};
  const auto armed = baseline.find("core.opt.gated_sccs");
  return armed != baseline.end() && armed->second > 0 && kGate.count(name);
}

double value_or_zero(const std::map<std::string, double>& m,
                     const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// JsonWriter breaks lines between tokens; the report and the result must
/// each be one line.  Strings escape their newlines, so every raw newline,
/// and the indentation after it, is layout.
std::string one_line(const std::string& json) {
  std::string out;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '\n') {
      out += json[i];
      continue;
    }
    while (i + 1 < json.size() && json[i + 1] == ' ') ++i;
  }
  return out;
}

/// JSON has no NaN or infinity.
double json_finite(double v) { return std::isfinite(v) ? v : 0.0; }

int usage() {
  std::fprintf(stderr,
               "usage: liberty_perfbench --workload rack|lanes|sweep "
               "--seed N --seconds S --trace 0|1\n"
               "       [--source-rev REV] [--spans FILE] [--tiny] "
               "[--corrupt-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string source_rev = "unknown";
  std::string spans_path;
  double seconds = -1.0;
  int trace = -1;
  perfbench::Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--source-rev" && has_value) {
      source_rev = argv[++i];
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--corrupt-reference") {
      opts.corrupt_reference = true;
    } else {
      return usage();
    }
  }
  if (!have_seed || seconds < 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  // Build and host fingerprint.  In a tree without git metadata the
  // revision falls back to the content hash the launcher computes.
  opts.git_rev = liberty::obs::current_git_rev();
  if (opts.git_rev == "unknown") opts.git_rev = source_rev;
  const bool checked = liberty::core::checked_kernel_enabled();
  const bool native = liberty::gen::native_available();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

  const auto w = perfbench::make_workload(workload, opts);
  if (w == nullptr) return usage();
  try {
    w->prepare();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: preparing the input failed: %s\n",
                 workload.c_str(), e.what());
    return 1;
  }

  // The measured loop: untraced runs trace nothing; traced runs alternate
  // traced and untraced operations so both see the same conditions.
  perfbench::Tracer on(trace == 1);
  perfbench::Tracer off(false);
  const std::size_t min_ops = trace == 1 ? 4 : 3;
  std::vector<OpRecord> ops;
  std::vector<char> traced_op;
  std::map<std::string, double> baseline;  // first good op's counts
  std::set<std::string> varied_flagged;
  const double t_start = perfbench::now_s();
  {
    const perfbench::Scope all(on, "workload");
    while (ops.size() < min_ops ||
           perfbench::now_s() - t_start < seconds) {
      const bool traced = trace == 1 && ops.size() % 2 == 0;
      OpRecord rec;
      try {
        rec = w->run_op(traced ? on : off, traced);
        if (traced) w->attribute(rec);
      } catch (const std::exception& e) {
        rec.ok = false;
        rec.error = e.what();
      }
      if (rec.ok && baseline.empty()) {
        baseline = rec.counts;
      } else if (rec.ok) {
        // Deterministic counters must repeat exactly across operations.
        std::string varied;
        for (const auto& [name, v] : rec.counts) {
          const auto it = baseline.find(name);
          if (it != baseline.end() && it->second == v) continue;
          if (gate_dependent(name, baseline)) {
            varied_flagged.insert(name);
          } else {
            varied += " " + name;
          }
        }
        if (!varied.empty()) {
          rec.ok = false;
          rec.error = "counters did not repeat:" + varied;
        }
      }
      ops.push_back(std::move(rec));
      traced_op.push_back(traced ? 1 : 0);
    }
  }
  const double rss = perfbench::peak_rss_mb();

  // Medians over the operations of one kind (successful ones when any).
  std::size_t failed = 0;
  for (const OpRecord& r : ops) failed += r.ok ? 0 : 1;
  auto med = [&](bool traced, auto&& get) {
    std::vector<double> good, all;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if ((traced_op[i] != 0) != traced) continue;
      all.push_back(get(ops[i]));
      if (ops[i].ok) good.push_back(get(ops[i]));
    }
    return median(good.empty() ? all : good);
  };

  struct Out {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Out> metrics;
  const double wall = med(false, [](const OpRecord& r) { return r.wall_s; });
  if (trace == 0) {
    const double values[] = {
        wall,
        med(false, [](const OpRecord& r) { return r.setup_s; }),
        med(false,
            [](const OpRecord& r) {
              return r.sim_s > 0.0
                         ? static_cast<double>(r.sim_cycles) / 1000.0 / r.sim_s
                         : 0.0;
            }),
        med(false, [](const OpRecord& r) { return r.cpu_s; }),
        rss,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i].name, kEndToEnd[i].unit, values[i]});
    }
  } else {
    auto add = [&](const std::string& name, const char* unit, double v) {
      metrics.push_back({name, unit, v});
    };
    for (const char* s : kStages) {
      add(std::string(s) + "_s", "s", med(true, [&](const OpRecord& r) {
            return value_or_zero(r.self_s, s);
          }));
    }
    const OpRecord* last = nullptr;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (traced_op[i] != 0 && (last == nullptr || ops[i].ok)) last = &ops[i];
    }
    for (const Metric& m : kCounts) {
      add(m.name, m.unit, last != nullptr ? value_or_zero(last->counts, m.name)
                                          : 0.0);
    }
    std::vector<std::pair<std::string, const char*>> profiled;
    for (const char* p : {"cycle_start", "resolve", "update", "commit"}) {
      profiled.push_back({std::string("core.phase.") + p + "_s", "s"});
    }
    for (const char* k : kKinds) {
      profiled.push_back({std::string("core.kind.") + k + "_s", "s"});
      profiled.push_back({std::string("core.kind.") + k + "_reacts", "count"});
    }
    profiled.push_back({"state.snapshot_share", "ratio"});
    for (const auto& [name, unit] : profiled) {
      add(name, unit, med(true, [&](const OpRecord& r) {
            return value_or_zero(r.profile, name);
          }));
    }
    const double traced_wall =
        med(true, [](const OpRecord& r) { return r.wall_s; });
    add("trace.overhead_s", "s", traced_wall - wall);
    add("trace.unaccounted_share", "ratio", med(true, [](const OpRecord& r) {
          return r.wall_s > 0.0 ? value_or_zero(r.self_s, "run") / r.wall_s
                                : 0.0;
        }));
  }

  if (!spans_path.empty() && trace == 1) {
    std::ofstream out(spans_path);
    on.write_chrome(out);
  }

  // The run report: fingerprint, failures, counters that varied.
  std::ostringstream rep;
  {
    liberty::obs::JsonWriter j(rep);
    j.begin_object();
    j.begin_object("report");
    j.field("workload", workload);
    j.field("seed", opts.seed);
    j.field("trace", trace);
    j.begin_object("fingerprint");
    j.field("git_rev", opts.git_rev);
    j.field("checked_kernel", checked);
    j.field("native_available", native);
    j.field("build_type", PERFBENCH_BUILD_TYPE);
    j.field("compiler", PERFBENCH_CXX);
    j.field("nproc", static_cast<std::uint64_t>(std::max(nproc, 0L)));
    j.end_object();
    j.field("operations", static_cast<std::uint64_t>(ops.size()));
    j.field("traced_operations",
            static_cast<std::uint64_t>(
                std::count(traced_op.begin(), traced_op.end(), 1)));
    j.begin_array("varied_flagged_counters");
    for (const std::string& n : varied_flagged) {
      j.element_raw('"' + liberty::obs::json_escape(n) + '"');
    }
    j.end_array();
    j.begin_array("op_wall_s");
    for (const OpRecord& r : ops) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.9g", json_finite(r.wall_s));
      j.element_raw(buf);
    }
    j.end_array();
    j.begin_array("failures");
    for (const OpRecord& r : ops) {
      if (!r.ok) j.element_raw('"' + liberty::obs::json_escape(r.error) + '"');
    }
    j.end_array();
    j.begin_object("counts");
    for (const auto& [k, v] : baseline) j.field(k.c_str(), json_finite(v));
    j.end_object();
    j.begin_object("profile");
    for (std::size_t i = ops.size(); i-- > 0;) {
      if (traced_op[i] == 0) continue;
      for (const auto& [k, v] : ops[i].profile) {  // the last traced operation
        j.field(k.c_str(), json_finite(v));
      }
      break;
    }
    j.end_object();
    j.end_object();
    j.end_object();
  }
  std::printf("%s\n", one_line(rep.str()).c_str());

  std::ostringstream res;
  {
    liberty::obs::JsonWriter j(res);
    j.begin_object();
    j.field("correct", failed == 0);
    j.field("attempted", static_cast<std::uint64_t>(ops.size()));
    j.field("failed", static_cast<std::uint64_t>(failed));
    j.begin_object("metrics");
    for (const Out& m : metrics) {
      j.begin_object(m.name.c_str());
      j.field("value", json_finite(m.value));
      j.field("unit", m.unit);
      j.end_object();
    }
    j.end_object();
    j.end_object();
  }
  std::printf("%s\n", one_line(res.str()).c_str());
  return 0;
}
