// lss_run: the Liberty simulator constructor as a command-line tool.
//
//   lss_run SPEC.lss [options]
//     --cycles N          cycles to simulate                [10000]
//     --param NAME=VALUE  override a top-level param (repeatable;
//                         integers, reals, true/false, or strings)
//     --scheduler dyn|static|parallel|compiled|native       [static]
//     --threads N         worker threads for --scheduler parallel
//                         (0 = hardware concurrency)        [0]
//     --opt-level N       elaboration-time optimizer level 0..2 [2]
//     --opt-report        print the optimizer's per-item report
//     --dot FILE          write the netlist as Graphviz DOT and exit
//                         (annotated with optimizer conclusions at -O1+)
//     --dump-bytecode     print the compiled backend's lowered program
//                         (docs/codegen.md) and exit
//     --codegen-cache-dir DIR  artifact cache for --scheduler native
//                         (default: LIBERTY_NATIVE_CACHE_DIR or the
//                         system temp directory)
//     --dump-native-src FILE  also write the native backend's generated
//                         C++ translation unit to FILE
//     --vcd FILE          also record a VCD transfer waveform
//     --profile FILE      write a Chrome trace-event JSON profile
//                         (load in Perfetto / chrome://tracing)
//     --metrics FILE      write the liberty.metrics JSON dump (module
//                         stats + scheduler counters + profile + watchdog)
//     --metrics-csv FILE  same metrics as flat CSV
//     --heartbeat N       print a progress line every N cycles
//     --quiet             suppress the statistics dump
//
// Resilience (docs/resilience.md):
//     --faults FILE       inject a liberty.faultplan JSON plan
//     --watchdog          run the invariant watchdog; with --faults a
//                         fault-free twin run records the divergence
//                         baseline first.  Violations exit 1.
//     --max-iters N       fixed-point iteration cap (combinational-loop
//                         guard); 0 keeps the scheduler default
//     --checkpoint-every N  snapshot interval for --recover        [64]
//     --recover POLICY    supervise with abort|rollback|quarantine
//                         recovery (ignores --vcd/--profile)
//     --digest            print trace + state digests for bit-exactness
//                         comparisons
//
// Durability (docs/resilience.md, "Durable checkpoints") — these imply the
// supervised loop (with policy abort unless --recover says otherwise):
//     --checkpoint-dir DIR  spill each checkpoint to DIR (atomic
//                         tmp+fsync+rename files; see --checkpoint-every)
//     --checkpoint-keep K retention: newest K checkpoint files      [4]
//     --resume            cold-start from the newest valid checkpoint in
//                         --checkpoint-dir; corrupt/torn files are listed
//                         and skipped, an empty dir starts from cycle 0
//     --kill-at N         raise(SIGKILL) after cycle N commits (crash-
//                         recovery harness aid)
//
// Options also accept --flag=value spelling.
//
// This is the Figure-1 pipeline end to end: specification in, executable
// simulator out, with the full component catalog available — plus the
// observability exporters of docs/observability.md.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "liberty/ccl/ccl.hpp"
#include "liberty/core/lss/elaborator.hpp"
#include "liberty/core/lss/parser.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/core/vcd.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/gen/native.hpp"
#include "liberty/mpl/mpl.hpp"
#include "liberty/nil/nil.hpp"
#include "liberty/obs/metrics.hpp"
#include "liberty/obs/profiler.hpp"
#include "liberty/obs/trace.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/resil/durable.hpp"
#include "liberty/resil/fault_plan.hpp"
#include "liberty/resil/injector.hpp"
#include "liberty/resil/recovery.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/upl/upl.hpp"

namespace {

liberty::Value parse_value(const std::string& text) {
  if (text == "true") return liberty::Value(true);
  if (text == "false") return liberty::Value(false);
  try {
    std::size_t used = 0;
    if (text.find('.') != std::string::npos ||
        text.find('e') != std::string::npos) {
      const double d = std::stod(text, &used);
      if (used == text.size()) return liberty::Value(d);
    } else {
      const long long i = std::stoll(text, &used);
      if (used == text.size()) {
        return liberty::Value(static_cast<std::int64_t>(i));
      }
    }
  } catch (const std::exception&) {
    // falls through to string
  }
  return liberty::Value(text);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s SPEC.lss [--cycles N] [--param NAME=VALUE]...\n"
               "       [--scheduler dyn|static|parallel|compiled|native]\n"
               "       [--threads N] [--opt-level N] [--opt-report]\n"
               "       [--dot FILE] [--dump-bytecode]\n"
               "       [--codegen-cache-dir DIR] [--dump-native-src FILE]\n"
               "       [--vcd FILE] [--profile FILE]\n"
               "       [--metrics FILE] [--metrics-csv FILE]\n"
               "       [--heartbeat N] [--quiet]\n"
               "       [--faults FILE] [--watchdog] [--max-iters N]\n"
               "       [--checkpoint-every N] [--recover POLICY] [--digest]\n"
               "       [--checkpoint-dir DIR] [--checkpoint-keep K]\n"
               "       [--resume] [--kill-at N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string spec_path;
  std::uint64_t cycles = 10'000;
  std::map<std::string, liberty::Value> overrides;
  auto kind = liberty::core::SchedulerKind::Static;
  unsigned threads = 0;
  std::string dot_path;
  bool dump_bytecode = false;
  std::string vcd_path;
  std::string profile_path;
  std::string metrics_path;
  std::string metrics_csv_path;
  std::uint64_t heartbeat = 0;
  int opt_level = 2;
  bool opt_report = false;
  bool quiet = false;
  std::string faults_path;
  bool want_watchdog = false;
  std::uint64_t max_iters = 0;
  std::uint64_t checkpoint_every = 64;
  std::string recover_policy;
  bool want_digest = false;
  std::string checkpoint_dir;
  std::uint64_t checkpoint_keep = 4;
  bool want_resume = false;
  std::uint64_t kill_at = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept --flag=value as well as --flag value.
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--cycles") {
      cycles = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--param") {
      const std::string kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos) return usage(argv[0]);
      overrides[kv.substr(0, eq)] = parse_value(kv.substr(eq + 1));
    } else if (arg == "--scheduler") {
      try {
        kind = liberty::core::scheduler_kind_from_name(next());
      } catch (const liberty::Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--opt-level") {
      opt_level = static_cast<int>(std::strtol(next(), nullptr, 10));
      if (opt_level < 0 || opt_level > 2) return usage(argv[0]);
    } else if (arg == "--opt-report") {
      opt_report = true;
    } else if (arg == "--dot") {
      dot_path = next();
    } else if (arg == "--dump-bytecode") {
      dump_bytecode = true;
    } else if (arg == "--codegen-cache-dir") {
      liberty::gen::native_options().cache_dir = next();
    } else if (arg == "--dump-native-src") {
      liberty::gen::native_options().dump_source_path = next();
    } else if (arg == "--vcd") {
      vcd_path = next();
    } else if (arg == "--profile") {
      profile_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--metrics-csv") {
      metrics_csv_path = next();
    } else if (arg == "--heartbeat") {
      heartbeat = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--faults") {
      faults_path = next();
    } else if (arg == "--watchdog") {
      want_watchdog = true;
    } else if (arg == "--max-iters") {
      max_iters = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--recover") {
      recover_policy = next();
    } else if (arg == "--digest") {
      want_digest = true;
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = next();
    } else if (arg == "--checkpoint-keep") {
      checkpoint_keep = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--resume") {
      want_resume = true;
    } else if (arg == "--kill-at") {
      kill_at = std::strtoull(next(), nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      spec_path = arg;
    }
  }
  if (spec_path.empty()) return usage(argv[0]);
  if ((want_resume || kill_at != 0) && checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "error: --resume/--kill-at require --checkpoint-dir\n");
    return 2;
  }

  liberty::core::ModuleRegistry registry;
  liberty::pcl::register_pcl(registry);
  liberty::upl::register_upl(registry);
  liberty::ccl::register_ccl(registry);
  liberty::mpl::register_mpl(registry);
  liberty::nil::register_nil(registry);
  liberty::gen::ensure_registered();

  try {
    const auto spec = liberty::core::lss::parse_file(spec_path);
    liberty::core::Netlist netlist;
    liberty::core::lss::Elaborator elab(registry);
    elab.elaborate(spec, netlist, overrides);
    netlist.finalize();

    const liberty::opt::OptReport rep = liberty::opt::optimize(
        netlist, liberty::opt::OptOptions::for_level(opt_level));
    if (!quiet) std::printf("%s\n", rep.summary().c_str());
    if (opt_report && !rep.detail.empty()) {
      std::fputs(rep.detail.c_str(), stdout);
    }

    if (!dot_path.empty()) {
      std::ofstream dot(dot_path);
      liberty::opt::write_annotated_dot(netlist, dot);
      std::printf("wrote %s (%zu instances, %zu connections)\n",
                  dot_path.c_str(), netlist.module_count(),
                  netlist.connection_count());
      return 0;
    }

    if (dump_bytecode) {
      liberty::gen::CompiledScheduler compiled(netlist);
      std::fputs(compiled.disassemble().c_str(), stdout);
      return 0;
    }

    // Resilience wiring.  The injector must outlive the simulator (the
    // scheduler's destructor clears the per-connection hooks).
    std::unique_ptr<liberty::resil::FaultInjector> injector;
    if (!faults_path.empty()) {
      injector = std::make_unique<liberty::resil::FaultInjector>(
          liberty::resil::FaultPlan::load(faults_path));
    }
    liberty::resil::Watchdog watchdog;

    // Divergence detection needs a fault-free reference trace.  LSS
    // elaboration is pure, so a twin elaborated from the same spec at the
    // same -O level transfers identically — record its per-cycle baseline
    // before the faulted run starts.
    if (want_watchdog && injector != nullptr) {
      liberty::core::Netlist twin;
      liberty::core::lss::Elaborator(registry).elaborate(spec, twin,
                                                         overrides);
      twin.finalize();
      liberty::opt::optimize(twin,
                             liberty::opt::OptOptions::for_level(opt_level));
      liberty::core::Simulator ref(twin,
                                   liberty::core::SchedulerKind::Static, 0);
      liberty::resil::Watchdog rec;
      rec.record_baseline();
      rec.attach(ref);
      ref.run(cycles);
      watchdog.set_baseline(rec.take_baseline());
    }

    if (!recover_policy.empty() || !checkpoint_dir.empty()) {
      // Supervised run: the Supervisor owns the simulator and the
      // simulate-detect-recover loop (docs/resilience.md).  With a
      // checkpoint directory the DurableSupervisor variant also spills
      // each checkpoint to disk and (--resume) cold-starts from the
      // newest valid file.
      liberty::resil::SupervisorConfig scfg;
      scfg.scheduler = kind;
      scfg.threads = threads;
      scfg.checkpoint_every = checkpoint_every;
      scfg.policy = recover_policy.empty()
                        ? liberty::resil::RecoveryPolicy::Abort
                        : liberty::resil::policy_from_name(recover_policy);
      scfg.iteration_cap = max_iters;
      std::unique_ptr<liberty::resil::Supervisor> sup_owner;
      liberty::resil::DurableSupervisor* dsup = nullptr;
      if (!checkpoint_dir.empty()) {
        liberty::resil::DurableConfig dcfg;
        dcfg.dir = checkpoint_dir;
        dcfg.keep_last = checkpoint_keep;
        dcfg.resume = want_resume;
        dcfg.kill_at = kill_at;
        auto owner = std::make_unique<liberty::resil::DurableSupervisor>(
            netlist, scfg, dcfg, injector.get(),
            want_watchdog ? &watchdog : nullptr);
        dsup = owner.get();
        sup_owner = std::move(owner);
      } else {
        sup_owner = std::make_unique<liberty::resil::Supervisor>(
            netlist, scfg, injector.get(),
            want_watchdog ? &watchdog : nullptr);
      }
      liberty::resil::Supervisor& sup = *sup_owner;
      const liberty::resil::RecoveryReport rep = sup.run(cycles);
      for (const std::string& ev : rep.events) {
        std::fprintf(stderr, "recovery: %s\n", ev.c_str());
      }
      if (want_watchdog) {
        for (const auto& d : watchdog.diagnostics()) {
          std::fprintf(stderr, "watchdog: %s\n", d.format().c_str());
        }
      }
      std::printf("%s\n", rep.summary().c_str());
      if (want_digest) {
        std::printf("digest: trace=%016llx state=%016llx cycles=%llu\n",
                    static_cast<unsigned long long>(rep.trace_digest()),
                    static_cast<unsigned long long>(rep.state_digest),
                    static_cast<unsigned long long>(rep.cycles));
      }
      if (!metrics_path.empty() || !metrics_csv_path.empty()) {
        liberty::obs::MetricsRegistry reg;
        reg.collect_modules(netlist);
        if (sup.simulator() != nullptr) {
          reg.collect_scheduler(sup.simulator()->scheduler());
        }
        if (want_watchdog) watchdog.export_metrics(reg);
        if (dsup != nullptr) dsup->export_metrics(reg);
        liberty::gen::export_native_metrics(reg);
        liberty::obs::RunMeta meta;
        meta.tool = "lss_run";
        meta.spec = spec_path;
        if (sup.simulator() != nullptr) {
          meta.scheduler =
              std::string(sup.simulator()->scheduler().kind_name());
        }
        meta.threads = threads;
        meta.cycles = rep.cycles;
        meta.git_rev = liberty::obs::current_git_rev();
        if (!metrics_path.empty()) {
          std::ofstream mf(metrics_path);
          reg.write_json(mf, meta);
        }
        if (!metrics_csv_path.empty()) {
          std::ofstream mf(metrics_csv_path);
          reg.write_csv(mf, meta);
        }
      }
      if (!rep.completed) {
        std::fprintf(stderr, "error: %s\n", rep.error.c_str());
        return 1;
      }
      return 0;
    }

    liberty::core::Simulator sim(netlist, kind, threads);
    if (max_iters > 0) sim.scheduler().set_iteration_cap(max_iters);
    if (injector != nullptr) injector->install(sim);
    std::unique_ptr<liberty::core::VcdTracer> tracer;
    std::ofstream vcd_file;
    if (!vcd_path.empty()) {
      vcd_file.open(vcd_path);
      tracer = std::make_unique<liberty::core::VcdTracer>(netlist, vcd_file);
      tracer->attach(sim);
    }

    // Observability: the profiler is the kernel probe; the trace writer
    // (when requested) chains behind it as a sink.  --metrics alone still
    // profiles so the dump can attribute time per module and phase.
    liberty::obs::CycleProfiler profiler;
    std::unique_ptr<liberty::obs::ChromeTraceWriter> trace;
    std::ofstream trace_file;
    const bool want_profile = !profile_path.empty() || !metrics_path.empty() ||
                              !metrics_csv_path.empty();
    if (!profile_path.empty()) {
      trace_file.open(profile_path);
      trace = std::make_unique<liberty::obs::ChromeTraceWriter>(trace_file);
      trace->attach_transfers(sim);
      profiler.set_sink(trace.get());
    }
    // Probe chain on the kernel's single slot: watchdog -> trace recorder
    // -> profiler (the watchdog reports before forwarding, the recorder
    // hashes each resolved cycle for --digest).
    liberty::core::KernelProbe* chain = nullptr;
    if (want_profile) chain = &profiler;
    std::unique_ptr<liberty::resil::TraceRecorder> recorder;
    if (want_digest) {
      recorder = std::make_unique<liberty::resil::TraceRecorder>(netlist);
      recorder->set_next(chain);
      chain = recorder.get();
    }
    if (want_watchdog) {
      watchdog.set_next(chain);
      watchdog.attach(sim);
    } else if (chain != nullptr) {
      sim.set_probe(chain);
    }

    std::uint64_t ran = 0;
    std::string sim_error;
    try {
      if (heartbeat == 0) {
        ran = sim.run(cycles);
      } else {
        while (ran < cycles) {
          const std::uint64_t chunk = std::min(heartbeat, cycles - ran);
          const auto step = sim.run(chunk);
          ran += step;
          std::fprintf(stderr, "heartbeat: cycle %llu/%llu\n",
                       static_cast<unsigned long long>(ran),
                       static_cast<unsigned long long>(cycles));
          if (step < chunk) break;  // a module requested a stop
        }
      }
    } catch (const liberty::Error& e) {
      // After a throwing cycle, now() already advanced past the aborted
      // cycle — the last *completed* cycle is now() - 1.
      sim_error = e.what();
      ran = sim.now() > 0 ? sim.now() - 1 : 0;
      if (want_watchdog) watchdog.note_kernel_error(sim_error, ran);
    }
    if (tracer) tracer->finish();
    if (trace) trace->finish();

    if (want_watchdog) {
      for (const auto& d : watchdog.diagnostics()) {
        std::fprintf(stderr, "watchdog: %s\n", d.format().c_str());
      }
      std::fprintf(stderr, "watchdog: %llu violation(s) over %llu cycle(s)\n",
                   static_cast<unsigned long long>(watchdog.violation_count()),
                   static_cast<unsigned long long>(watchdog.cycles_checked()));
    }
    if (want_digest) {
      const std::uint64_t trace_digest =
          liberty::resil::fold_trace(recorder->hashes());
      std::printf("digest: trace=%016llx state=%016llx cycles=%llu\n",
                  static_cast<unsigned long long>(trace_digest),
                  static_cast<unsigned long long>(sim.state_digest()),
                  static_cast<unsigned long long>(ran));
    }

    if (!metrics_path.empty() || !metrics_csv_path.empty()) {
      liberty::obs::MetricsRegistry reg;
      reg.collect_modules(netlist);
      reg.collect_scheduler(sim.scheduler());
      reg.collect_profile(profiler, &netlist);
      if (want_watchdog) watchdog.export_metrics(reg);
      liberty::gen::export_native_metrics(reg);
      liberty::obs::RunMeta meta;
      meta.tool = "lss_run";
      meta.spec = spec_path;
      meta.scheduler = std::string(sim.scheduler().kind_name());
      meta.threads = threads;
      meta.cycles = ran;
      meta.git_rev = liberty::obs::current_git_rev();
      if (!metrics_path.empty()) {
        std::ofstream mf(metrics_path);
        reg.write_json(mf, meta);
      }
      if (!metrics_csv_path.empty()) {
        std::ofstream mf(metrics_csv_path);
        reg.write_csv(mf, meta);
      }
    }

    std::printf("%s: %zu instances, %zu connections, %llu cycles simulated\n",
                spec_path.c_str(), netlist.module_count(),
                netlist.connection_count(),
                static_cast<unsigned long long>(ran));
    if (!quiet) netlist.dump_stats(std::cout);
    if (!sim_error.empty()) {
      std::fprintf(stderr, "error: %s\n", sim_error.c_str());
      return 1;
    }
    return want_watchdog && watchdog.violation_count() > 0 ? 1 : 0;
  } catch (const liberty::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
