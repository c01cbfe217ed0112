// liberty_fuzz: command-line driver for the differential fuzz harness.
//
// Generates seeded random netlists, runs each under the dynamic reference
// scheduler plus a battery of candidates (static and compiled, unoptimized
// and at --opt-level), and reports any divergence down to the exact cycle
// via snapshot/restore bisection.  Every run is reproducible from its seed:
//
//   liberty_fuzz --seed 42                 # one netlist, full oracle
//   liberty_fuzz --seed 1 --count 500      # seeds 1..500
//   liberty_fuzz --seed 7 --print-spec     # show the generated netlist
//   liberty_fuzz --seed 7 --shrink         # reduce a failure to a minimal
//                                          # reproducer before reporting
//   liberty_fuzz --seed 7 --inject-fault static:50:1
//                                          # test the harness itself: corrupt
//                                          # one scheduler and watch the
//                                          # oracle catch and bisect it
//
// Exit status: 0 = all seeds passed, 1 = divergence found, 2 = bad usage.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "liberty/ccl/ccl.hpp"
#include "liberty/core/scheduler.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/obs/metrics.hpp"
#include "liberty/obs/profiler.hpp"
#include "liberty/obs/trace.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/resil/fault_plan.hpp"
#include "liberty/resil/injector.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/scenario/rack.hpp"
#include "liberty/support/strings.hpp"
#include "liberty/testing/fuzzer.hpp"
#include "liberty/testing/netspec.hpp"
#include "liberty/testing/oracle.hpp"
#include "liberty/testing/shrink.hpp"

namespace {

constexpr const char* kUsage = R"(usage: liberty_fuzz [options]
  --seed S            first seed (default 1)
  --count N           number of consecutive seeds to run (default 1)
  --family F          netlist family: pcl (default; the pcl/ccl dataflow
                      generator) or rack (full-system rack scenarios from
                      liberty::scenario — hosts, NIC firmware, coherence,
                      mesh; the --no-* / --feedback / --cycles generator
                      knobs do not apply)
  --cycles C          cycle budget per netlist (default 200)
  --snapshot-every K  snapshot interval for the oracle (default 16)
  --feedback P        probability of a feedback ring, 0..1 (default 0.5)
  --no-arbiter        exclude pcl.arbiter from the module mix
  --no-tee            exclude pcl.tee
  --no-crossbar       exclude pcl.crossbar
  --no-mux            exclude pcl.mux
  --no-buffer         exclude pcl.buffer
  --no-ccl            exclude ccl.traffic_gen / ccl.traffic_sink
  --opt-level N       also run each candidate scheduler at optimizer level
                      N (default 2; 0 disables the optimized candidates)
  --print-spec        print each generated netlist before running it
  --shrink            on failure, shrink to a minimal reproducer
  --no-bisect         skip snapshot/restore bisection on divergence
  --inject-fault K:C:N  drop acks under scheduler K
                      (dynamic|static|compiled|native)
                      from cycle C on connection N (harness self-test; sugar
                      for a one-spec --faults plan restricted to K)
  --faults FILE       inject the liberty.faultplan JSON plan FILE into every
                      oracle simulator
  --fault-matrix      run the resil coverage matrix instead of fuzzing:
                      every fault class injected into a reference pipeline
                      and detected by the watchdog, plus a false-positive
                      sweep over fault-free fuzzed netlists
  --profile FILE      run every oracle simulator with a kernel profiler
                      attached (proving probes cannot perturb results) and
                      write a Chrome trace of the first seed's reference run
  --metrics FILE      as --profile, but write the liberty.metrics JSON dump
                      of the first seed's reference run
  --heartbeat N       print a progress line every N seeds
  --help              this text
)";

struct Options {
  std::uint64_t seed = 1;
  std::uint64_t count = 1;
  liberty::testing::FuzzConfig fuzz;
  liberty::testing::OracleConfig oracle;
  // Owned here; oracle.fault_plan points at it while set.
  std::unique_ptr<liberty::resil::FaultPlan> fault_plan;
  std::string profile_path;
  std::string metrics_path;
  std::uint64_t heartbeat = 0;
  std::string family = "pcl";
  int opt_level = 2;
  bool print_spec = false;
  bool shrink = false;
  bool fault_matrix = false;
};

/// K:C:N — the pre-FaultPlan CLI shape, kept for compatibility: a drop_ack
/// spec on connection N from cycle C, restricted to scheduler kind K
/// (checked by the caller, like a plan file's "scheduler").
bool parse_fault(const std::string& arg, liberty::resil::FaultSpec& f) {
  const std::size_t c1 = arg.find(':');
  const std::size_t c2 = arg.find(':', c1 == std::string::npos ? c1 : c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) return false;
  f.scheduler = arg.substr(0, c1);
  std::uint64_t cycle = 0;
  std::uint64_t conn = 0;
  if (!liberty::parse_u64(arg.substr(c1 + 1, c2 - c1 - 1), cycle)) {
    return false;
  }
  if (!liberty::parse_u64(arg.substr(c2 + 1), conn)) return false;
  f.cls = liberty::resil::FaultClass::DropAck;
  f.from_cycle = cycle;
  f.connection = static_cast<liberty::core::ConnId>(conn);
  return true;
}

int parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // Accept --flag=value as well as --flag value.
    std::string inline_value;
    bool has_inline = false;
    if (a.rfind("--", 0) == 0) {
      if (const auto eq = a.find('='); eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a.resize(eq);
        has_inline = true;
      }
    }
    const auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::cerr << "liberty_fuzz: " << a << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    const auto next_u64 = [&](std::uint64_t& out) {
      const char* v = next();
      if (v == nullptr) return false;
      if (liberty::parse_u64(v, out)) return true;
      std::cerr << "liberty_fuzz: " << a << " wants an unsigned integer, got '"
                << v << "'\n";
      return false;
    };
    if (a == "--help" || a == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (a == "--seed") {
      if (!next_u64(opt.seed)) return 2;
    } else if (a == "--count") {
      if (!next_u64(opt.count)) return 2;
    } else if (a == "--family") {
      const char* v = next();
      if (v == nullptr) return 2;
      opt.family = v;
      if (opt.family != "pcl" && opt.family != "rack") {
        std::cerr << "liberty_fuzz: --family wants pcl or rack\n";
        return 2;
      }
    } else if (a == "--cycles") {
      std::uint64_t c = 0;
      if (!next_u64(c) || c == 0) return 2;
      opt.fuzz.cycles = static_cast<liberty::core::Cycle>(c);
    } else if (a == "--snapshot-every") {
      std::uint64_t k = 0;
      if (!next_u64(k) || k == 0) return 2;
      opt.oracle.snapshot_every = static_cast<liberty::core::Cycle>(k);
    } else if (a == "--feedback") {
      const char* v = next();
      if (v == nullptr) return 2;
      char* end = nullptr;
      const double p = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
        std::cerr << "liberty_fuzz: --feedback wants a probability in 0..1, "
                     "got '" << v << "'\n";
        return 2;
      }
      opt.fuzz.feedback_prob = p;
    } else if (a == "--no-arbiter") {
      opt.fuzz.use_arbiter = false;
    } else if (a == "--no-tee") {
      opt.fuzz.use_tee = false;
    } else if (a == "--no-crossbar") {
      opt.fuzz.use_crossbar = false;
    } else if (a == "--no-mux") {
      opt.fuzz.use_mux = false;
    } else if (a == "--no-buffer") {
      opt.fuzz.use_buffer = false;
    } else if (a == "--no-ccl") {
      opt.fuzz.use_ccl_traffic = false;
    } else if (a == "--opt-level") {
      std::uint64_t level = 0;
      if (!next_u64(level) || level > 2) return 2;
      opt.opt_level = static_cast<int>(level);
    } else if (a == "--print-spec") {
      opt.print_spec = true;
    } else if (a == "--shrink") {
      opt.shrink = true;
    } else if (a == "--no-bisect") {
      opt.oracle.bisect = false;
    } else if (a == "--inject-fault") {
      liberty::resil::FaultSpec fault;
      const char* v = next();
      if (v == nullptr || !parse_fault(v, fault)) {
        std::cerr << "liberty_fuzz: --inject-fault wants kind:cycle:conn\n";
        return 2;
      }
      try {
        liberty::resil::check_scheduler_restriction(fault.scheduler);
      } catch (const std::exception& e) {
        std::cerr << "liberty_fuzz: --inject-fault: " << e.what() << "\n";
        return 2;
      }
      if (opt.fault_plan == nullptr) {
        opt.fault_plan = std::make_unique<liberty::resil::FaultPlan>();
      }
      opt.fault_plan->faults.push_back(std::move(fault));
    } else if (a == "--faults") {
      const char* v = next();
      if (v == nullptr) return 2;
      try {
        opt.fault_plan = std::make_unique<liberty::resil::FaultPlan>(
            liberty::resil::FaultPlan::load(v));
      } catch (const std::exception& e) {
        std::cerr << "liberty_fuzz: " << e.what() << "\n";
        return 2;
      }
    } else if (a == "--fault-matrix") {
      opt.fault_matrix = true;
    } else if (a == "--profile") {
      const char* v = next();
      if (v == nullptr) return 2;
      opt.profile_path = v;
      opt.oracle.profile = true;
    } else if (a == "--metrics") {
      const char* v = next();
      if (v == nullptr) return 2;
      opt.metrics_path = v;
      opt.oracle.profile = true;
    } else if (a == "--heartbeat") {
      if (!next_u64(opt.heartbeat)) return 2;
    } else {
      std::cerr << "liberty_fuzz: unknown option " << a << "\n" << kUsage;
      return 2;
    }
  }
  return 0;
}

/// Instrumented reference (dynamic) run of one spec: writes the --profile
/// trace and/or --metrics dump requested on the command line.
void write_artifacts(const liberty::testing::NetSpec& spec,
                     const liberty::core::ModuleRegistry& registry,
                     std::uint64_t seed, const Options& opt) {
  liberty::core::Netlist netlist;
  spec.build(netlist, registry);
  liberty::core::Simulator sim(netlist,
                               liberty::core::SchedulerKind::Dynamic);
  liberty::obs::CycleProfiler prof;
  std::unique_ptr<liberty::obs::ChromeTraceWriter> trace;
  std::ofstream trace_file;
  if (!opt.profile_path.empty()) {
    trace_file.open(opt.profile_path);
    trace = std::make_unique<liberty::obs::ChromeTraceWriter>(trace_file);
    trace->attach_transfers(sim);
    prof.set_sink(trace.get());
  }
  sim.set_probe(&prof);
  const auto ran = sim.run(spec.cycles);
  if (trace) trace->finish();
  if (!opt.metrics_path.empty()) {
    liberty::obs::MetricsRegistry reg;
    reg.collect_modules(netlist);
    reg.collect_scheduler(sim.scheduler());
    reg.collect_profile(prof, &netlist);
    liberty::obs::RunMeta meta;
    meta.tool = "liberty_fuzz";
    meta.spec = "seed " + std::to_string(seed);
    meta.scheduler = "dynamic";
    meta.seed = seed;
    meta.cycles = ran;
    meta.git_rev = liberty::obs::current_git_rev();
    std::ofstream mf(opt.metrics_path);
    reg.write_json(mf, meta);
  }
}

// --- --fault-matrix: the resil coverage matrix ------------------------------

/// Reference pipeline for the matrix: a period-2 source so the queue
/// alternates between offering and idling — both ack polarities get
/// exercised, which is what makes drop_ack *and* spurious_ack observable.
liberty::testing::NetSpec matrix_spec() {
  using liberty::Value;
  liberty::testing::NetSpec spec;
  spec.cycles = 120;
  liberty::core::Params src;
  src.set("kind", Value(std::string("counter")));
  src.set("period", Value(std::int64_t{2}));
  liberty::core::Params q;
  q.set("depth", Value(std::int64_t{3}));
  spec.modules.push_back({"pcl.source", "src", src});
  spec.modules.push_back({"pcl.queue", "q", q});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});  // conn 0: src -> q (managed)
  spec.edges.push_back({1, "out", 2, "in"});  // conn 1: q -> snk (auto ack)
  return spec;
}

/// Fault-free reference run of `spec`: the watchdog baseline to diff
/// against.
std::vector<std::vector<std::uint64_t>> record_baseline(
    const liberty::testing::NetSpec& spec,
    const liberty::core::ModuleRegistry& registry) {
  liberty::core::Netlist netlist;
  spec.build(netlist, registry);
  liberty::resil::Watchdog wd;
  wd.record_baseline();
  liberty::core::Simulator sim(netlist, liberty::core::SchedulerKind::Static);
  wd.attach(sim);
  sim.run(spec.cycles);
  return wd.take_baseline();
}

struct MatrixRow {
  bool detected = false;
  std::string via;          // protocol | divergence | handler_fault | ...
  std::string attribution;  // the first diagnostic, formatted
};

MatrixRow run_matrix_case(
    const liberty::testing::NetSpec& spec,
    const liberty::core::ModuleRegistry& registry,
    const std::vector<std::vector<std::uint64_t>>& baseline,
    liberty::resil::FaultClass cls) {
  namespace resil = liberty::resil;
  resil::FaultPlan plan;
  plan.seed = 0xfa;
  resil::FaultSpec f;
  f.cls = cls;
  f.from_cycle = 40;
  if (cls == resil::FaultClass::HandlerThrow) {
    f.module = "q";
  } else if (cls == resil::FaultClass::DropAck ||
             cls == resil::FaultClass::SpuriousAck) {
    f.connection = 1;  // the kernel-owned (AutoAccept) ack
  } else {
    f.connection = 0;  // the managed forward channel
  }
  plan.faults.push_back(std::move(f));

  liberty::core::Netlist netlist;
  spec.build(netlist, registry);
  resil::FaultInjector injector(plan);
  resil::Watchdog wd;
  wd.set_baseline(baseline);
  liberty::core::Simulator sim(netlist, liberty::core::SchedulerKind::Static);
  injector.install(sim);
  wd.attach(sim);
  try {
    sim.run(spec.cycles);
  } catch (const liberty::Error& e) {
    wd.note_kernel_error(e.what(), sim.now() > 0 ? sim.now() - 1 : 0);
  }

  MatrixRow row;
  if (wd.violation_count() > 0) {
    row.detected = true;
    const resil::Diagnostic& d = wd.diagnostics().front();
    row.via = std::string(resil::diagnostic_kind_name(d.kind));
    row.attribution = d.format();
  }
  return row;
}

/// Watchdog violations on a fault-free run of `spec` (must be zero).
std::uint64_t false_positive_count(
    const liberty::testing::NetSpec& spec,
    const liberty::core::ModuleRegistry& registry) {
  auto baseline = record_baseline(spec, registry);
  liberty::core::Netlist netlist;
  spec.build(netlist, registry);
  liberty::resil::Watchdog wd;
  wd.set_baseline(std::move(baseline));
  liberty::core::Simulator sim(netlist, liberty::core::SchedulerKind::Static);
  wd.attach(sim);
  sim.run(spec.cycles);
  return wd.violation_count();
}

int run_fault_matrix(const liberty::core::ModuleRegistry& registry,
                     const Options& opt) {
  namespace resil = liberty::resil;
  const liberty::testing::NetSpec spec = matrix_spec();
  const auto baseline = record_baseline(spec, registry);

  std::size_t detected = 0;
  std::size_t kernel_classes = 0;
  std::cout << "fault-vs-detection coverage matrix (static scheduler, "
            << spec.cycles << " cycles, onset cycle 40):\n";
  for (std::size_t k = 0; k < resil::kFaultClassCount; ++k) {
    const auto cls = static_cast<resil::FaultClass>(k);
    if (resil::is_env_fault(cls)) {
      // Environment faults corrupt the checkpoint path, not a connection —
      // the watchdog has no seam to observe. The durable resume harness
      // (tests/test_durable.cpp) covers their detection.
      std::cout << "  " << resil::fault_class_name(cls)
                << ": N/A (environment fault; covered by durable resume)\n";
      continue;
    }
    ++kernel_classes;
    const MatrixRow row = run_matrix_case(spec, registry, baseline, cls);
    std::cout << "  " << resil::fault_class_name(cls) << ": "
              << (row.detected ? "DETECTED via " + row.via : "MISSED");
    if (row.detected) std::cout << "  (" << row.attribution << ")";
    std::cout << "\n";
    if (row.detected) ++detected;
  }

  // False-positive leg: the watchdog must stay silent on fault-free runs —
  // the matrix pipeline plus a sweep of fuzzed topologies.
  std::uint64_t fp = false_positive_count(spec, registry);
  std::uint64_t clean_runs = 1;
  for (std::uint64_t s = 1; s <= 10; ++s) {
    fp += false_positive_count(
        liberty::testing::generate_netlist(s, opt.fuzz), registry);
    ++clean_runs;
  }
  std::cout << "  false positives on " << clean_runs
            << " fault-free runs: " << fp << "\n";

  const bool ok = detected == kernel_classes && fp == 0;
  std::cout << (ok ? "coverage: " : "COVERAGE FAILURE: ") << detected << "/"
            << kernel_classes << " classes detected, " << fp
            << " false positives\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const int rc = parse_args(argc, argv, opt); rc != 0) return rc;

  liberty::core::ModuleRegistry registry;
  if (opt.family == "rack") {
    // Full-system netlists include compiled-scheduler candidates, so the
    // gen backend must be linked in and registered up front.
    liberty::scenario::register_rack_libraries(registry);
    liberty::gen::ensure_registered();
  } else {
    liberty::pcl::register_pcl(registry);
    liberty::ccl::register_ccl(registry);
  }

  if (opt.fault_matrix) return run_fault_matrix(registry, opt);
  opt.oracle.fault_plan = opt.fault_plan.get();

  // Candidate battery: every scheduler unoptimized, then again at
  // --opt-level so each fuzzed netlist also proves the elaboration-time
  // optimizer sound (bit-identical transfers, digests, and stats).  The
  // fault-injection self-test keeps the battery unoptimized so exactly the
  // targeted scheduler kind diverges and blame stays unambiguous.
  {
    using liberty::core::SchedulerKind;
    using liberty::testing::Candidate;
    opt.oracle.candidates = {
        Candidate{SchedulerKind::Static, 0},
        Candidate{SchedulerKind::Compiled, 0},
    };
    if (opt.opt_level > 0 && opt.fault_plan == nullptr) {
      opt.oracle.candidates.push_back(
          Candidate{SchedulerKind::Dynamic, 0, opt.opt_level});
      opt.oracle.candidates.push_back(
          Candidate{SchedulerKind::Static, 0, opt.opt_level});
      opt.oracle.candidates.push_back(
          Candidate{SchedulerKind::Compiled, 0, opt.opt_level});
    }
  }

  std::uint64_t failures = 0;
  for (std::uint64_t s = opt.seed; s < opt.seed + opt.count; ++s) {
    liberty::testing::NetSpec spec;
    try {
      spec = opt.family == "rack"
                 ? liberty::scenario::fuzz_rack_netspec(s)
                 : liberty::testing::generate_netlist(s, opt.fuzz);
    } catch (const std::exception& e) {
      std::cerr << "seed " << s << ": generator error: " << e.what() << "\n";
      return 1;
    }
    if (opt.print_spec) {
      std::cout << "# seed " << s << "\n" << spec.render();
    }
    if (s == opt.seed &&
        (!opt.profile_path.empty() || !opt.metrics_path.empty())) {
      try {
        write_artifacts(spec, registry, s, opt);
      } catch (const std::exception& e) {
        std::cerr << "seed " << s << ": artifact error: " << e.what() << "\n";
        return 1;
      }
    }

    liberty::testing::OracleResult result;
    try {
      result = liberty::testing::run_oracle(spec, registry, opt.oracle);
    } catch (const std::exception& e) {
      std::cerr << "seed " << s << ": oracle error: " << e.what() << "\n"
                << spec.render();
      ++failures;
      continue;
    }
    if (result.ok) {
      if (opt.count == 1 || opt.print_spec) {
        std::cout << "seed " << s << ": ok (" << spec.modules.size()
                  << " modules, " << spec.edges.size() << " connections, "
                  << spec.cycles << " cycles)\n";
      }
      if (opt.heartbeat != 0) {
        const std::uint64_t done = s - opt.seed + 1;
        if (done % opt.heartbeat == 0) {
          std::cerr << "heartbeat: " << done << "/" << opt.count
                    << " seeds, " << failures << " failures\n";
        }
      }
      continue;
    }

    ++failures;
    std::cout << "seed " << s << ": DIVERGENCE\n" << result.report();
    if (opt.shrink) {
      liberty::testing::ShrinkStats st;
      const liberty::testing::NetSpec reduced =
          liberty::testing::shrink_netlist(spec, registry, opt.oracle, &st);
      std::cout << "shrink: " << spec.modules.size() << " -> "
                << reduced.modules.size() << " modules ("
                << st.attempts << " candidates, " << st.accepted
                << " accepted)\n"
                << "minimal reproducer:\n" << reduced.render()
                << liberty::testing::run_oracle(reduced, registry, opt.oracle)
                       .report();
    } else {
      std::cout << "reproduce with: liberty_fuzz --seed " << s
                << " --cycles " << spec.cycles << " --print-spec\n";
    }
  }

  if (opt.count > 1) {
    std::cout << (opt.count - failures) << "/" << opt.count
              << " seeds passed\n";
  }
  return failures == 0 ? 0 : 1;
}
