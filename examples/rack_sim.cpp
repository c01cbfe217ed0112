// rack_sim: the flagship rack-scale scenario as a command-line tool
// (docs/scenarios.md).
//
//   rack_sim [options]
//     --cols N / --rows N   mesh geometry (nodes = cols*rows)   [2 / 2]
//     --cores N             coherent cores per node             [2]
//     --no-ooo              drop the per-node behavioral OoO core
//     --ordering sc|tso     memory ordering controller mode     [tso]
//     --vcs N               fabric virtual channels             [2]
//     --link-latency N      mesh link latency                   [1]
//     --iters N             worker read-modify-write iterations [32]
//     --trace FILE          replay a trace file (see docs/scenarios.md);
//                           default: synthetic from --seed/--requests
//     --seed N              synthetic workload seed             [1]
//     --requests N          synthetic requests per node         [4]
//     --cycles N            cycles to simulate                  [20000]
//     --scheduler dyn|static|compiled                           [static]
//     --opt-level N         elaboration-time optimizer 0..2     [2]
//     --metrics FILE        liberty.metrics JSON (module stats +
//                           scheduler counters + rack.* aggregates)
//     --metrics-csv FILE    same as flat CSV
//     --digest              print trace + state digests for
//                           bit-exactness comparisons
//     --records             print every sink's per-request records
//     --print-spec          print the NetSpec rendering and exit
//     --quiet               suppress the per-module statistics dump
//
// Durability (docs/resilience.md, "Durable checkpoints") — same flags and
// same diagnostic message path as lss_run:
//     --checkpoint-dir DIR  spill checkpoints to DIR and run supervised
//     --checkpoint-every N  spill interval in cycles              [64]
//     --checkpoint-keep K   retention: newest K checkpoint files  [4]
//     --resume              cold-start from the newest valid checkpoint;
//                           corrupt/torn files are listed and skipped
//     --kill-at N           raise(SIGKILL) after cycle N commits
//
// Options also accept --flag=value spelling.  Numeric values must be
// unsigned decimal integers; anything else is a usage error (exit 2).
// The run always reports injected/completed request counts, end-to-end
// latency percentiles (p50/p95/p99), throughput, and the mesh's Orion
// energy and thermal aggregates.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "liberty/core/simulator.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/obs/metrics.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/resil/durable.hpp"
#include "liberty/resil/recovery.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/scenario/rack.hpp"
#include "liberty/scenario/trace_modules.hpp"
#include "liberty/support/strings.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--cols N] [--rows N] [--cores N] [--no-ooo]\n"
      "       [--ordering sc|tso] [--vcs N] [--link-latency N] [--iters N]\n"
      "       [--trace FILE] [--seed N] [--requests N] [--cycles N]\n"
      "       [--scheduler dyn|static|compiled]\n"
      "       [--opt-level N] [--metrics FILE] [--metrics-csv FILE]\n"
      "       [--digest] [--records] [--print-spec] [--quiet]\n"
      "       [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "       [--checkpoint-keep K] [--resume] [--kill-at N]\n",
      argv0);
  return 2;
}

/// Nearest-rank percentile of a sorted sample (exact, unlike the
/// bucket-estimated histogram quantiles the module stats export).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(std::max(rank - 1.0, 0.0)));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  liberty::scenario::RackConfig cfg;
  auto kind = liberty::core::SchedulerKind::Static;
  int opt_level = 2;
  std::string trace_path;
  std::string metrics_path;
  std::string metrics_csv_path;
  bool want_digest = false;
  bool want_records = false;
  bool print_spec = false;
  bool quiet = false;
  std::string checkpoint_dir;
  std::uint64_t checkpoint_every = 64;
  std::uint64_t checkpoint_keep = 4;
  bool want_resume = false;
  std::uint64_t kill_at = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
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
    auto next_u64 = [&]() -> std::uint64_t {
      const char* v = next();
      std::uint64_t out = 0;
      if (!liberty::parse_u64(v, out)) {
        std::fprintf(stderr, "error: %s wants an unsigned integer, got '%s'\n",
                     arg.c_str(), v);
        std::exit(usage(argv[0]));
      }
      return out;
    };
    if (arg == "--cols") {
      cfg.mesh_cols = next_u64();
    } else if (arg == "--rows") {
      cfg.mesh_rows = next_u64();
    } else if (arg == "--cores") {
      cfg.cores = next_u64();
    } else if (arg == "--no-ooo") {
      cfg.with_ooo = false;
    } else if (arg == "--ordering") {
      cfg.ordering = next();
    } else if (arg == "--vcs") {
      cfg.vcs = next_u64();
    } else if (arg == "--link-latency") {
      const std::uint64_t latency = next_u64();
      if (latency > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max())) {
        return usage(argv[0]);
      }
      cfg.link_latency = static_cast<std::int64_t>(latency);
    } else if (arg == "--iters") {
      cfg.worker_iters = next_u64();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--seed") {
      cfg.seed = next_u64();
    } else if (arg == "--requests") {
      cfg.requests_per_node = next_u64();
    } else if (arg == "--cycles") {
      cfg.cycles = next_u64();
    } else if (arg == "--scheduler") {
      try {
        kind = liberty::core::scheduler_kind_from_name(next());
      } catch (const liberty::Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--opt-level") {
      const std::uint64_t level = next_u64();
      if (level > 2) return usage(argv[0]);
      opt_level = static_cast<int>(level);
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--metrics-csv") {
      metrics_csv_path = next();
    } else if (arg == "--digest") {
      want_digest = true;
    } else if (arg == "--records") {
      want_records = true;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = next();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = next_u64();
    } else if (arg == "--checkpoint-keep") {
      checkpoint_keep = next_u64();
    } else if (arg == "--resume") {
      want_resume = true;
    } else if (arg == "--kill-at") {
      kill_at = next_u64();
    } else {
      return usage(argv[0]);
    }
  }
  if ((want_resume || kill_at != 0) && checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "error: --resume/--kill-at require --checkpoint-dir\n");
    return 2;
  }

  try {
    if (!trace_path.empty()) {
      std::ifstream in(trace_path, std::ios::binary);
      if (!in.good()) {
        std::fprintf(stderr, "error: cannot read %s\n", trace_path.c_str());
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      cfg.trace = text.str();
    }

    liberty::core::ModuleRegistry registry;
    liberty::scenario::register_rack_libraries(registry);
    liberty::gen::ensure_registered();

    const liberty::testing::NetSpec spec =
        liberty::scenario::rack_netspec(cfg);
    if (print_spec) {
      std::fputs(spec.render().c_str(), stdout);
      return 0;
    }

    liberty::core::Netlist netlist;
    spec.build(netlist, registry);
    const liberty::opt::OptReport rep = liberty::opt::optimize(
        netlist, liberty::opt::OptOptions::for_level(opt_level));
    if (!quiet) std::printf("%s\n", rep.summary().c_str());

    // Durable mode routes through the DurableSupervisor (spill + resume +
    // --kill-at); otherwise a bare simulator runs the scenario.  Both end
    // with the netlist carrying the same module state, so the aggregate
    // reporting below is shared.
    std::unique_ptr<liberty::core::Simulator> sim_owner;
    std::unique_ptr<liberty::resil::DurableSupervisor> sup;
    std::unique_ptr<liberty::resil::TraceRecorder> recorder;
    std::uint64_t ran = 0;
    std::uint64_t trace_digest = 0;
    std::uint64_t state_digest = 0;
    if (!checkpoint_dir.empty()) {
      liberty::resil::SupervisorConfig scfg;
      scfg.scheduler = kind;
      scfg.checkpoint_every = checkpoint_every;
      scfg.policy = liberty::resil::RecoveryPolicy::Abort;
      liberty::resil::DurableConfig dcfg;
      dcfg.dir = checkpoint_dir;
      dcfg.keep_last = checkpoint_keep;
      dcfg.resume = want_resume;
      dcfg.aux_seed = cfg.seed;
      dcfg.kill_at = kill_at;
      sup = std::make_unique<liberty::resil::DurableSupervisor>(netlist, scfg,
                                                                dcfg);
      const liberty::resil::RecoveryReport rrep = sup->run(cfg.cycles);
      for (const std::string& ev : rrep.events) {
        std::fprintf(stderr, "recovery: %s\n", ev.c_str());
      }
      if (!rrep.completed) {
        std::fprintf(stderr, "error: %s\n", rrep.error.c_str());
        return 1;
      }
      ran = rrep.cycles;
      trace_digest = rrep.trace_digest();
      state_digest = rrep.state_digest;
    } else {
      sim_owner =
          std::make_unique<liberty::core::Simulator>(netlist, kind);
      if (want_digest) {
        recorder = std::make_unique<liberty::resil::TraceRecorder>(netlist);
        sim_owner->set_probe(recorder.get());
      }
      ran = sim_owner->run(cfg.cycles);
      if (want_digest) {
        trace_digest = liberty::resil::fold_trace(recorder->hashes());
        state_digest = sim_owner->state_digest();
      }
    }

    // Rack-level aggregates from the trace endpoints.
    std::uint64_t injected = 0;
    std::vector<double> latencies;
    for (std::size_t n = 0; n < cfg.nodes(); ++n) {
      const std::string base = "n" + std::to_string(n);
      if (const auto* src =
              dynamic_cast<const liberty::scenario::TraceSource*>(
                  netlist.find(base + ".src"))) {
        injected += src->injected();
      }
      const auto* sink = dynamic_cast<const liberty::scenario::TraceSink*>(
          netlist.find(base + ".sink"));
      if (sink == nullptr) continue;
      if (want_records) std::fputs(sink->render_records().c_str(), stdout);
      for (const auto& rec : sink->records()) {
        latencies.push_back(rec.done >= rec.born
                                ? static_cast<double>(rec.done - rec.born)
                                : 0.0);
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentile(latencies, 0.50);
    const double p95 = percentile(latencies, 0.95);
    const double p99 = percentile(latencies, 0.99);
    const double throughput =
        ran == 0 ? 0.0
                 : static_cast<double>(latencies.size()) * 1000.0 /
                       static_cast<double>(ran);
    const liberty::scenario::RackPowerReport power =
        liberty::scenario::rack_power_report(netlist, cfg);

    std::printf(
        "%s: %zu instances, %llu cycles simulated\n"
        "requests: injected=%llu completed=%zu\n"
        "latency cycles: p50=%.0f p95=%.0f p99=%.0f\n"
        "throughput: %.3f requests/kcycle\n"
        "mesh energy: dynamic=%.1fpJ leakage=%.1fpJ total=%.1fpJ\n"
        "mesh thermal: peak=%.2fC end=%.2fC\n",
        cfg.tag().c_str(), netlist.module_count(),
        static_cast<unsigned long long>(ran),
        static_cast<unsigned long long>(injected), latencies.size(), p50, p95,
        p99, throughput, power.router_dynamic_pj, power.router_leakage_pj,
        power.router_total_pj, power.peak_temperature_c,
        power.max_temperature_c);

    if (want_digest) {
      std::printf("digest: trace=%016llx state=%016llx cycles=%llu\n",
                  static_cast<unsigned long long>(trace_digest),
                  static_cast<unsigned long long>(state_digest),
                  static_cast<unsigned long long>(ran));
    }

    if (!metrics_path.empty() || !metrics_csv_path.empty()) {
      liberty::obs::MetricsRegistry reg;
      reg.collect_modules(netlist);
      liberty::core::Simulator* live_sim =
          sup != nullptr ? sup->simulator() : sim_owner.get();
      if (live_sim != nullptr) reg.collect_scheduler(live_sim->scheduler());
      if (sup != nullptr) sup->export_metrics(reg);
      reg.add_counter("rack.requests_injected", injected);
      reg.add_counter("rack.requests_completed", latencies.size());
      reg.add_scalar("rack.throughput_rpkc", throughput);
      liberty::obs::MetricsRegistry::Summary lat;
      lat.count = latencies.size();
      if (!latencies.empty()) {
        double sum = 0.0;
        for (const double l : latencies) sum += l;
        lat.mean = sum / static_cast<double>(latencies.size());
        lat.min = latencies.front();
        lat.max = latencies.back();
      }
      lat.has_quantiles = true;
      lat.p50 = p50;
      lat.p95 = p95;
      lat.p99 = p99;
      reg.add_summary("rack.latency", lat);
      reg.add_scalar("rack.router_dynamic_pj", power.router_dynamic_pj);
      reg.add_scalar("rack.router_leakage_pj", power.router_leakage_pj);
      reg.add_scalar("rack.router_total_pj", power.router_total_pj);
      reg.add_scalar("rack.peak_temperature_c", power.peak_temperature_c);
      liberty::obs::RunMeta meta;
      meta.tool = "rack_sim";
      meta.spec = cfg.tag();
      if (live_sim != nullptr) {
        meta.scheduler = std::string(live_sim->scheduler().kind_name());
      }
      meta.seed = cfg.seed;
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

    if (!quiet) netlist.dump_stats(std::cout);
    return 0;
  } catch (const liberty::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
