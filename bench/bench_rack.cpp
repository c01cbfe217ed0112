// Rack-scale macro-benchmark (docs/scenarios.md).
//
// The flagship scenario — trace-driven nodes with programmable NICs over a
// wormhole mesh, multicore coherent compute planes per node — run under
// every scheduler at -O0 and -O2.  Unlike the micro-benchmarks, the
// figures of merit here are *model-level*: end-to-end request latency
// percentiles (p50/p95/p99) and throughput, alongside the usual
// wall-clock and kernel counters.  Every (scheduler, opt) cell must land
// on the same transfer and state digests — the rows double as a
// differential check at macro scale.
//
// Artifact: BENCH_rack.json in the working directory; the rack rows are
// also folded into the checked-in BENCH_scheduler.json so the scheduler
// comparison covers a full-system netlist.
#include "bench_util.hpp"

#include <algorithm>
#include <cmath>

#include "liberty/core/simulator.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/scenario/rack.hpp"
#include "liberty/scenario/trace_modules.hpp"

using namespace liberty;
using namespace liberty::bench;

namespace {

core::ModuleRegistry& rack_registry() {
  static core::ModuleRegistry r = [] {
    core::ModuleRegistry reg;
    scenario::register_rack_libraries(reg);
    return reg;
  }();
  return r;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(std::max(rank - 1.0, 0.0)));
  return sorted[idx];
}

struct CellResult {
  double wall_s = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t injected = 0;
  std::uint64_t completed = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double throughput_rpkc = 0.0;
  double router_total_pj = 0.0;
  double peak_temperature_c = 0.0;
  std::uint64_t trace_digest = 0;
  std::uint64_t state_digest = 0;
  std::vector<std::pair<std::string, std::uint64_t>> kernel;
};

CellResult run_cell(const scenario::RackConfig& cfg,
                    const testing::NetSpec& spec, core::SchedulerKind kind,
                    int opt_level) {
  core::Netlist nl;
  spec.build(nl, rack_registry());
  opt::optimize(nl, opt::OptOptions::for_level(opt_level));
  core::Simulator sim(nl, kind);
  resil::TraceRecorder recorder(nl);
  sim.set_probe(&recorder);
  CellResult res;
  res.wall_s = time_seconds([&] { res.cycles = sim.run(cfg.cycles); });
  res.trace_digest = resil::fold_trace(recorder.hashes());
  res.state_digest = sim.state_digest();
  std::vector<double> lats;
  for (std::size_t n = 0; n < cfg.nodes(); ++n) {
    const std::string base = "n" + std::to_string(n);
    if (const auto* src = dynamic_cast<const scenario::TraceSource*>(
            nl.find(base + ".src"))) {
      res.injected += src->injected();
    }
    if (const auto* sink = dynamic_cast<const scenario::TraceSink*>(
            nl.find(base + ".sink"))) {
      for (const auto& rec : sink->records()) {
        lats.push_back(rec.done >= rec.born
                           ? static_cast<double>(rec.done - rec.born)
                           : 0.0);
      }
    }
  }
  std::sort(lats.begin(), lats.end());
  res.completed = lats.size();
  res.p50 = percentile(lats, 0.50);
  res.p95 = percentile(lats, 0.95);
  res.p99 = percentile(lats, 0.99);
  res.throughput_rpkc =
      res.cycles == 0 ? 0.0
                      : static_cast<double>(res.completed) * 1000.0 /
                            static_cast<double>(res.cycles);
  const scenario::RackPowerReport power = scenario::rack_power_report(nl, cfg);
  res.router_total_pj = power.router_total_pj;
  res.peak_temperature_c = power.peak_temperature_c;
  res.kernel = kernel_counters(sim.scheduler());
  return res;
}

}  // namespace

int main() {
  gen::ensure_registered();
  scenario::RackConfig cfg;  // the default 2x2 rack, 2 cores + OoO per node
  const testing::NetSpec spec = scenario::rack_netspec(cfg);

  struct Cell {
    const char* label;
    core::SchedulerKind kind;
  };
  const std::vector<Cell> matrix = {
      {"dynamic", core::SchedulerKind::Dynamic},
      {"static", core::SchedulerKind::Static},
      {"compiled", core::SchedulerKind::Compiled},
  };

  FILE* out = std::fopen("BENCH_rack.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_rack.json\n");
    return 1;
  }
  JsonWriter json(out);
  json.begin_object();
  json.field("bench", "rack");
  json.field("netlist", cfg.tag());
  json.field("cycles", static_cast<std::uint64_t>(cfg.cycles));
  json.begin_array("schedulers");

  Table table({"scheduler", "wall_s", "p50", "p95", "p99", "rpkc", "done"});
  bool identical = true;
  std::uint64_t ref_trace = 0, ref_state = 0;
  bool have_ref = false;
  for (const Cell& cell : matrix) {
    for (const int opt_level : {0, 2}) {
      const CellResult res = run_cell(cfg, spec, cell.kind, opt_level);
      if (!have_ref) {
        ref_trace = res.trace_digest;
        ref_state = res.state_digest;
        have_ref = true;
      } else if (res.trace_digest != ref_trace ||
                 res.state_digest != ref_state) {
        identical = false;
      }
      const std::string label =
          std::string(cell.label) + "-O" + std::to_string(opt_level);
      table.row({label, fmt(res.wall_s, 3), fmt(res.p50, 0), fmt(res.p95, 0),
                 fmt(res.p99, 0), fmt(res.throughput_rpkc, 3),
                 fmt(res.completed)});
      json.object();
      json.field("name", label);
      json.field("scheduler", cell.label);
      json.field("opt_level", static_cast<std::uint64_t>(opt_level));
      json.field("wall_s", res.wall_s);
      json.field("kcycles_per_s",
                 res.wall_s > 0.0
                     ? static_cast<double>(res.cycles) / 1000.0 / res.wall_s
                     : 0.0);
      json.field("requests_injected", res.injected);
      json.field("requests_completed", res.completed);
      json.field("latency_p50", res.p50);
      json.field("latency_p95", res.p95);
      json.field("latency_p99", res.p99);
      json.field("throughput_rpkc", res.throughput_rpkc);
      json.field("router_total_pj", res.router_total_pj);
      json.field("peak_temperature_c", res.peak_temperature_c);
      char digest[32];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(res.trace_digest));
      json.field("trace_digest", digest);
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(res.state_digest));
      json.field("state_digest", digest);
      emit_kernel_counters(json, res.kernel);
      json.end_object();
    }
  }
  json.end_array();
  json.field("digests_identical", identical ? "true" : "false");
  json.end_object();
  std::fclose(out);

  table.print();
  std::printf("digests identical across all cells: %s\n",
              identical ? "yes" : "NO");
  std::printf("wrote BENCH_rack.json\n");
  return identical ? 0 : 1;
}
