#include "workloads.hpp"

#include <cxxabi.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <typeinfo>
#include <vector>

#include "liberty/core/lss/elaborator.hpp"
#include "liberty/core/lss/parser.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/obs/metrics.hpp"
#include "liberty/obs/profiler.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/resil/fault_plan.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/scenario/rack.hpp"
#include "liberty/scenario/trace.hpp"
#include "liberty/scenario/trace_modules.hpp"
#include "liberty/support/rng.hpp"
#include "liberty/testing/oracle.hpp"

namespace perfbench {

namespace core = liberty::core;
namespace obs = liberty::obs;
namespace opt = liberty::opt;
namespace resil = liberty::resil;
namespace scenario = liberty::scenario;
namespace testing = liberty::testing;

namespace {

const core::ModuleRegistry& registry() {
  static const core::ModuleRegistry reg = [] {
    core::ModuleRegistry r;
    scenario::register_rack_libraries(r);
    liberty::gen::ensure_registered();
    return r;
  }();
  return reg;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

/// The operation's root span and clocks.  end() marks the checked output:
/// it fills wall, CPU and (traced) self times; what is destroyed after it
/// is teardown, outside the operation.
class OpClock {
 public:
  OpClock(Tracer& tracer, OpRecord& rec)
      : tracer_(tracer), rec_(rec), root_(tracer.open("run")) {}
  ~OpClock() { end(); }
  OpClock(const OpClock&) = delete;
  OpClock& operator=(const OpClock&) = delete;

  [[nodiscard]] double start() const noexcept { return t0_; }
  void end() {
    if (done_) return;
    done_ = true;
    rec_.wall_s = now_s() - t0_;
    rec_.cpu_s = cpu_s() - c0_;
    tracer_.close(root_);
    rec_.self_s = tracer_.self_times(root_);
  }

 private:
  Tracer& tracer_;
  OpRecord& rec_;
  int root_;
  double t0_ = now_s();
  double c0_ = cpu_s();
  bool done_ = false;
};

/// The run digest resil::TraceRecorder + resil::fold_trace produce, folded
/// from the commit-time transfer observer instead.  A KernelProbe switches
/// on per-module react timing in the kernel, so an untraced operation
/// hashes its transfers here and leaves the probe slot empty.  Commit
/// visits a cycle's transfers in connection-id order, the order
/// hash_resolved_transfers walks, and a cycle without transfers folds the
/// empty hash just as TraceRecorder records it.
class TransferDigest {
 public:
  void attach(core::Simulator& sim) {
    sim.observe_transfers([this](const core::Connection& c, core::Cycle cy) {
      advance(cy);
      cur_ = resil::mix_transfer(cur_, c);
    });
  }
  [[nodiscard]] std::uint64_t finish(core::Cycle cycles_run) {
    advance(cycles_run);
    return folded_;
  }

 private:
  void advance(core::Cycle cycle) {
    while (next_ < cycle) {
      folded_ = core::fnv1a_mix(folded_, cur_);
      cur_ = core::kFnv1aInit;
      ++next_;
    }
  }
  std::uint64_t folded_ = core::kFnv1aInit;
  std::uint64_t cur_ = core::kFnv1aInit;
  core::Cycle next_ = 0;
};

/// Digests and model invariants of one finished simulation.
struct Outcome {
  std::uint64_t trace = 0;
  std::uint64_t state = 0;
  std::map<std::string, double> model;
};

/// "liberty::upl::SimpleCpu" -> "upl.SimpleCpu".
std::string kind_of(const core::Module& m) {
  int status = 0;
  char* raw = abi::__cxa_demangle(typeid(m).name(), nullptr, nullptr, &status);
  std::string name = status == 0 && raw != nullptr ? raw : typeid(m).name();
  std::free(raw);
  if (name.rfind("liberty::", 0) == 0) name.erase(0, 9);
  for (std::size_t p; (p = name.find("::")) != std::string::npos;) {
    name.replace(p, 2, ".");
  }
  return name;
}

void record_counters(const core::SchedulerBase& sched, OpRecord& rec) {
  sched.visit_counters([&rec](std::string_view name, std::uint64_t v) {
    const std::string n(name);
    rec.counts[n.rfind("gen.", 0) == 0 ? n : "core." + n] +=
        static_cast<double>(v);
  });
}

void record_opt(const opt::OptReport& rep, OpRecord& rec) {
  rec.counts["opt.fused_modules"] += static_cast<double>(rep.fused_modules);
  rec.counts["opt.const_channels"] +=
      static_cast<double>(rep.const_forwards + rep.const_backwards);
  rec.counts["opt.elided_modules"] += static_cast<double>(rep.elided_modules);
  rec.counts["opt.sleepable_modules"] +=
      static_cast<double>(rep.sleepable_modules);
}

void record_profile(const obs::CycleProfiler& prof, const core::Netlist& nl,
                    OpRecord& rec) {
  for (std::size_t i = 0; i < core::kSchedPhaseCount; ++i) {
    const auto phase = static_cast<core::SchedPhase>(i);
    rec.profile["core.phase." + std::string(core::phase_name(phase)) + "_s"] =
        prof.phases()[i].seconds;
  }
  const auto& reacts = prof.module_reacts();
  const auto& secs = prof.module_seconds();
  for (std::size_t id = 0; id < reacts.size() && id < nl.modules().size();
       ++id) {
    const std::string base = "core.kind." + kind_of(*nl.modules()[id]);
    rec.profile[base + "_s"] += secs[id];
    rec.profile[base + "_reacts"] += static_cast<double>(reacts[id]);
  }
}

std::size_t slot_count(const core::KernelSnapshot& snap) {
  std::size_t n = 0;
  for (const auto& slots : snap.module_state) n += slots.size();
  return n;
}

/// Export the collected metrics the way the front ends do, into memory.
void write_metrics(const obs::MetricsRegistry& reg, const Options& opts,
                   const std::string& spec, const char* scheduler,
                   std::uint64_t cycles) {
  obs::RunMeta meta;
  meta.tool = "perfbench";
  meta.spec = spec;
  meta.scheduler = scheduler;
  meta.seed = opts.seed;
  meta.cycles = cycles;
  meta.git_rev = opts.git_rev;
  std::ostringstream os;
  reg.write_json(os, meta);
  if (os.str().empty()) fail("metrics export wrote nothing");
}

/// Percentile by nearest rank, as rack_sim reports it.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = std::min(
      sorted.size() - 1, static_cast<std::size_t>(std::max(rank - 1.0, 0.0)));
  return sorted[idx];
}

/// One simulator from input to checked output, shared by rack and lanes.
/// `build` elaborates and optimizes the netlist inside its own stages;
/// `model` reads the model invariants off the finished netlist.  With a
/// reference the digests and invariants must match it.  With `traced`, a
/// TraceRecorder chained to a CycleProfiler takes the probe slot, and the
/// recorder's digest must equal the observer's.
template <typename Build, typename Model>
Outcome simulate(Tracer& tracer, bool traced, OpRecord& rec,
                 const Options& opts, const std::string& tag,
                 core::SchedulerKind kind, core::Cycle cycles,
                 const Outcome* ref, Build&& build, Model&& model) {
  auto& st = rec.stage_s;
  OpClock clock(tracer, rec);
  auto nl = std::make_unique<core::Netlist>();
  record_opt(build(*nl), rec);
  auto sim = stage(tracer, st, "core.construct", [&] {
    return std::make_unique<core::Simulator>(*nl, kind);
  });
  rec.setup_s = now_s() - clock.start();

  TransferDigest digest;
  digest.attach(*sim);
  obs::CycleProfiler prof;
  resil::TraceRecorder recorder(*nl);
  if (traced) {
    recorder.set_next(&prof);
    sim->set_probe(&recorder);
  }
  const core::Cycle ran =
      stage(tracer, st, "core.run", [&] { return sim->run(cycles); });
  rec.sim_s = st["core.run"];
  rec.sim_cycles = ran;
  sim->set_probe(nullptr);

  Outcome out;
  stage(tracer, st, "state.snapshot", [&] {
    const core::KernelSnapshot snap = sim->snapshot();
    out.state = snap.digest();
    rec.counts["state.snapshots"] = 1;
    rec.counts["state.slots"] = static_cast<double>(slot_count(snap));
  });
  stage(tracer, st, "bench.check", [&] {
    out.trace = digest.finish(ran);
    if (traced && resil::fold_trace(recorder.hashes()) != out.trace) {
      fail("observer trace digest disagrees with resil::TraceRecorder");
    }
    out.model = model(*nl, ran);
    if (ref == nullptr) return;
    if (out.trace != ref->trace || out.state != ref->state) {
      char buf[192];
      std::snprintf(buf, sizeof buf,
                    "%s: digests trace=%016llx state=%016llx differ from the "
                    "dynamic -O0 reference",
                    tag.c_str(), static_cast<unsigned long long>(out.trace),
                    static_cast<unsigned long long>(out.state));
      fail(buf);
    }
    if (out.model != ref->model) {
      fail(tag + ": model invariants differ from the reference");
    }
  });
  stage(tracer, st, "obs.export", [&] {
    obs::MetricsRegistry reg;
    reg.collect_modules(*nl);
    reg.collect_scheduler(sim->scheduler());
    if (traced) reg.collect_profile(prof, nl.get());
    for (const auto& [k, v] : out.model) reg.add_scalar(k, v);
    const std::string sched(sim->scheduler().kind_name());
    write_metrics(reg, opts, tag, sched.c_str(), ran);
  });
  clock.end();

  record_counters(sim->scheduler(), rec);
  for (const auto& [k, v] : out.model) rec.counts[k] = v;
  if (traced) {
    record_profile(prof, *nl, rec);
    rec.profile["state.snapshot_share"] =
        rec.wall_s > 0.0 ? st["state.snapshot"] / rec.wall_s : 0.0;
  }
  return out;
}

// --- rack --------------------------------------------------------------------

/// The flagship 4x4 rack under rack_sim's default (static, -O2), replaying
/// a synthetic trace whose injections spread over the whole run.
class Rack final : public Workload {
 public:
  explicit Rack(const Options& opts) : opts_(opts) {
    cfg_.mesh_cols = opts.tiny ? 2 : 4;
    cfg_.mesh_rows = opts.tiny ? 2 : 4;
    cfg_.cycles = opts.tiny ? 1500 : 12000;
    cfg_.seed = opts.seed;  // names the run in cfg_.tag(); the trace is explicit
    trace_.nodes = cfg_.nodes();
    trace_.per_node = opts.tiny ? 4 : 24;
    trace_.seed = opts.seed;
    trace_.mean_gap = (cfg_.cycles - trace_.start) / (trace_.per_node + 1);
  }

  void prepare() override {
    Tracer off(false);
    OpRecord scratch;
    ref_ = pass(off, true, scratch, core::SchedulerKind::Dynamic, 0, nullptr);
    if (ref_.model.at("model.requests_completed") == 0) {
      fail("rack reference completed no requests");
    }
    if (opts_.corrupt_reference) ref_.trace ^= 1;
  }

  OpRecord run_op(Tracer& tracer, bool traced) override {
    OpRecord rec;
    pass(tracer, traced, rec, core::SchedulerKind::Static, 2, &ref_);
    return rec;
  }

 private:
  static std::map<std::string, double> model(const core::Netlist& nl,
                                             core::Cycle ran) {
    std::vector<double> lat;
    for (const auto& m : nl.modules()) {
      if (const auto* sink =
              dynamic_cast<const scenario::TraceSink*>(m.get())) {
        for (const auto& r : sink->records()) {
          lat.push_back(r.done >= r.born ? static_cast<double>(r.done - r.born)
                                         : 0.0);
        }
      }
    }
    std::sort(lat.begin(), lat.end());
    return {{"model.latency_p50_cycles", percentile(lat, 0.50)},
            {"model.latency_p99_cycles", percentile(lat, 0.99)},
            {"model.throughput_rpkc",
             ran == 0 ? 0.0
                      : static_cast<double>(lat.size()) * 1000.0 /
                            static_cast<double>(ran)},
            {"model.requests_completed", static_cast<double>(lat.size())}};
  }

  Outcome pass(Tracer& tracer, bool traced, OpRecord& rec,
               core::SchedulerKind kind, int level, const Outcome* ref) {
    auto& st = rec.stage_s;
    return simulate(
        tracer, traced, rec, opts_, cfg_.tag(), kind, cfg_.cycles, ref,
        [&](core::Netlist& nl) {
          scenario::RackConfig cfg = cfg_;
          cfg.trace = stage(tracer, st, "scenario.trace_gen", [&] {
            return scenario::render_trace(scenario::synthetic_trace(trace_));
          });
          const testing::NetSpec spec =
              stage(tracer, st, "scenario.netspec",
                    [&] { return scenario::rack_netspec(cfg); });
          stage(tracer, st, "testing.build",
                [&] { spec.build(nl, registry()); });
          return stage(tracer, st, "opt.optimize", [&] {
            return opt::optimize(nl, opt::OptOptions::for_level(level));
          });
        },
        &Rack::model);
  }

  Options opts_;
  scenario::RackConfig cfg_;
  scenario::TraceConfig trace_;
  Outcome ref_;
};

// --- lanes -------------------------------------------------------------------

/// LSS text for `lanes` independent hierarchical lanes, half dense
/// (period 1) and half sparse (period >= 32), in seed-shuffled order with
/// seed-drawn depths, latencies and funcmap chain lengths.  The counts are
/// fixed, so every seed asks for the same amount of work.
std::string lanes_lss(std::uint64_t seed, std::size_t lanes) {
  liberty::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1a4e5);
  std::ostringstream os;
  os << "// perfbench lanes, seed " << seed << "\n";
  for (int f = 0; f < 4; ++f) {
    os << "module lane_f" << f << " {\n"
       << "  param period = 1;\n  param start = 0;\n  param depth = 4;\n"
       << "  param latency = 2;\n  param seed = 1;\n"
       << "  instance src : pcl.source { kind = \"counter\"; period = period;"
       << " start = start; seed = seed; };\n"
       << "  instance q : pcl.queue { depth = depth; };\n"
       << "  instance d : pcl.delay { latency = latency; };\n";
    std::string prev = "d";
    for (int k = 0; k < f; ++k) {
      os << "  instance f" << k << " : pcl.funcmap;\n"
         << "  connect " << prev << ".out -> f" << k << ".in;\n";
      prev = "f" + std::to_string(k);
    }
    os << "  instance snk : pcl.sink;\n"
       << "  connect src.out -> q.in;\n  connect q.out -> d.in;\n"
       << "  connect " << prev << ".out -> snk.in;\n}\n";
  }
  std::vector<char> dense(lanes, 0);
  std::fill(dense.begin(), dense.begin() + static_cast<long>(lanes / 2), 1);
  for (std::size_t i = lanes; i > 1; --i) {
    std::swap(dense[i - 1], dense[rng.below(i)]);
  }
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::uint64_t period = dense[i] ? 1 : 32 + rng.below(97);
    os << "instance l" << i << " : lane_f" << rng.below(4)
       << " { period = " << period << "; start = " << rng.below(period)
       << "; depth = " << 2 + rng.below(7)
       << "; latency = " << 1 + rng.below(4) << "; seed = " << i + 1
       << "; };\n";
  }
  return os.str();
}

/// Generated LSS lanes, parsed, elaborated, optimized at -O2 and run on
/// the compiled backend.
class Lanes final : public Workload {
 public:
  explicit Lanes(const Options& opts)
      : opts_(opts),
        text_(lanes_lss(opts.seed, opts.tiny ? 32 : 1024)),
        cycles_(opts.tiny ? 300 : 1000) {}

  void prepare() override {
    Tracer off(false);
    OpRecord scratch;
    ref_ = pass(off, true, scratch, core::SchedulerKind::Dynamic, 0, nullptr);
    if (opts_.corrupt_reference) ref_.trace ^= 1;
  }

  OpRecord run_op(Tracer& tracer, bool traced) override {
    OpRecord rec;
    pass(tracer, traced, rec, core::SchedulerKind::Compiled, 2, &ref_);
    return rec;
  }

 private:
  Outcome pass(Tracer& tracer, bool traced, OpRecord& rec,
               core::SchedulerKind kind, int level, const Outcome* ref) {
    auto& st = rec.stage_s;
    return simulate(
        tracer, traced, rec, opts_, "lanes", kind, cycles_, ref,
        [&](core::Netlist& nl) {
          const auto spec = stage(tracer, st, "lss.parse", [&] {
            return core::lss::parse(text_, "lanes.lss");
          });
          stage(tracer, st, "lss.elaborate", [&] {
            core::lss::Elaborator(registry()).elaborate(spec, nl);
            nl.finalize();
          });
          return stage(tracer, st, "opt.optimize", [&] {
            return opt::optimize(nl, opt::OptOptions::for_level(level));
          });
        },
        [](const core::Netlist&, core::Cycle) {
          return std::map<std::string, double>{};
        });
  }

  Options opts_;
  std::string text_;
  core::Cycle cycles_;
  Outcome ref_;
};

// --- sweep -------------------------------------------------------------------

/// An ensemble of fuzz-family racks, each through testing::run_oracle with
/// {static, compiled} x {-O0, -O2} against the dynamic -O0 reference.
class Sweep final : public Workload {
 public:
  explicit Sweep(const Options& opts) : opts_(opts) {}

  /// The ensemble: walking the seed's stream, the first rack of each of
  /// the fuzz family's structural shapes (module-type census), so every
  /// ensemble holds one rack per shape and does comparable work.  Each
  /// rack runs kCycles, the fuzz family's mean run length.
  void prepare() override {
    const std::size_t want = opts_.tiny ? 2 : 8;
    std::set<std::map<std::string, std::size_t>> shapes;
    for (std::uint64_t i = 0; seeds_.size() < want; ++i) {
      if (i == 4096) fail("sweep: too few distinct rack shapes");
      const std::uint64_t s = opts_.seed * 1000003ULL + i;
      const testing::NetSpec spec = member(s);
      std::map<std::string, std::size_t> census;
      for (const auto& m : spec.modules) ++census[m.type];
      if (shapes.insert(census).second) seeds_.push_back(s);
    }
    // Value slots in each rack's initial snapshot: fixed by the input.
    for (const std::uint64_t s : seeds_) {
      core::Netlist nl;
      member(s).build(nl, registry());
      slots_ += slot_count(core::Simulator(nl, core::SchedulerKind::Dynamic)
                               .snapshot());
    }
    if (opts_.corrupt_reference) {
      // A wrong candidate: corrupt every transfer the static candidates
      // make, so each rack's oracle must report a divergence.
      core::Netlist nl;
      member(seeds_.front()).build(nl, registry());
      for (const auto& c : nl.connections()) {
        resil::FaultSpec f;
        f.cls = resil::FaultClass::CorruptData;
        f.connection = c->id();
        f.scheduler = "static";
        plan_.faults.push_back(f);
      }
    }
  }

  OpRecord run_op(Tracer& tracer, bool traced) override {
    OpRecord rec;
    auto& st = rec.stage_s;
    // Set-up as the oracle does it internally, once per simulator, measured
    // in a pass of its own before the operation's clock starts: wall_s and
    // cpu_s cover only the oracle traffic, which sets up again inside.
    std::vector<testing::NetSpec> specs;
    const int setup = tracer.open("setup");
    const double t0 = now_s();
    for (const std::uint64_t s : seeds_) {
      specs.push_back(stage(tracer, st, "scenario.netspec",
                            [&] { return member(s); }));
    }
    for (const testing::NetSpec& spec : specs) {
      for (const Config& c : kConfigs) {
        core::Netlist nl;
        stage(tracer, st, "testing.build", [&] { spec.build(nl, registry()); });
        if (c.level > 0) {
          record_opt(stage(tracer, st, "opt.optimize",
                           [&] {
                             return opt::optimize(
                                 nl, opt::OptOptions::for_level(c.level));
                           }),
                     rec);
        }
        const auto sim = stage(tracer, st, "core.construct", [&] {
          return std::make_unique<core::Simulator>(nl, c.kind);
        });
        record_counters(sim->scheduler(), rec);
      }
    }
    rec.setup_s = now_s() - t0;
    tracer.close(setup);
    const std::map<std::string, double> setup_self = tracer.self_times(setup);

    OpClock clock(tracer, rec);
    std::size_t divergences = 0;
    std::string first_report;
    for (const testing::NetSpec& spec : specs) {
      const testing::OracleResult res =
          stage(tracer, st, "testing.oracle",
                [&] { return oracle(spec, traced, kSnapshotEvery); });
      rec.sim_cycles += spec.cycles * std::size(kConfigs);
      rec.counts["state.snapshots"] +=
          static_cast<double>(snapshots_per_run(spec.cycles, kSnapshotEvery) *
                              std::size(kConfigs));
      if (!res.ok) {
        ++divergences;
        if (first_report.empty()) first_report = res.report();
      }
    }
    rec.sim_s = st["testing.oracle"];
    rec.counts["state.slots"] = static_cast<double>(slots_);
    rec.counts["sweep.racks"] = static_cast<double>(specs.size());

    stage(tracer, st, "obs.export", [&] {
      obs::MetricsRegistry reg;
      reg.add_counter("sweep.racks", specs.size());
      reg.add_counter("sweep.divergences", divergences);
      reg.add_counter("sweep.simulated_cycles", rec.sim_cycles);
      write_metrics(reg, opts_, "sweep", "dynamic", rec.sim_cycles);
    });
    clock.end();
    for (const auto& [name, v] : setup_self) rec.self_s[name] += v;
    if (divergences != 0) {
      fail(std::to_string(divergences) + " of " +
           std::to_string(specs.size()) +
           " racks diverged; first: " + first_report);
    }
    return rec;
  }

  /// The snapshot share, attributed from outside: the same racks through
  /// an oracle that snapshots only at the end of each run, profiled like
  /// the traced operation's, so the snapshot interval is the only
  /// difference.
  void attribute(OpRecord& rec) override {
    double lean = 0.0;
    for (const std::uint64_t s : seeds_) {
      const testing::NetSpec spec = member(s);
      const double t0 = now_s();
      (void)oracle(spec, true, spec.cycles);
      lean += now_s() - t0;
    }
    const double full = rec.stage_s["testing.oracle"];
    rec.profile["state.snapshot_share"] =
        rec.wall_s > 0.0 ? std::max(full - lean, 0.0) / rec.wall_s : 0.0;
  }

 private:
  struct Config {
    core::SchedulerKind kind;
    int level;
  };
  /// The dynamic -O0 reference, then the candidates.
  static constexpr Config kConfigs[] = {
      {core::SchedulerKind::Dynamic, 0},  {core::SchedulerKind::Static, 0},
      {core::SchedulerKind::Static, 2},   {core::SchedulerKind::Compiled, 0},
      {core::SchedulerKind::Compiled, 2},
  };
  static constexpr core::Cycle kSnapshotEvery = 16;  // the oracle default
  static constexpr core::Cycle kCycles = 3000;

  static testing::NetSpec member(std::uint64_t seed) {
    testing::NetSpec spec = scenario::fuzz_rack_netspec(seed);
    spec.cycles = kCycles;
    return spec;
  }

  /// Snapshots one oracle run takes: the initial one, one per window.
  static std::size_t snapshots_per_run(core::Cycle cycles, core::Cycle every) {
    return 1 + static_cast<std::size_t>((cycles + every - 1) / every);
  }

  testing::OracleResult oracle(const testing::NetSpec& spec, bool profile,
                               core::Cycle every) const {
    testing::OracleConfig cfg;
    for (std::size_t i = 1; i < std::size(kConfigs); ++i) {
      cfg.candidates.push_back(
          testing::Candidate{kConfigs[i].kind, 0, kConfigs[i].level});
    }
    cfg.snapshot_every = every;
    cfg.profile = profile;
    if (!plan_.faults.empty()) cfg.fault_plan = &plan_;
    return testing::run_oracle(spec, registry(), cfg);
  }

  Options opts_;
  std::vector<std::uint64_t> seeds_;
  std::size_t slots_ = 0;
  resil::FaultPlan plan_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opts) {
  if (name == "rack") return std::make_unique<Rack>(opts);
  if (name == "lanes") return std::make_unique<Lanes>(opts);
  if (name == "sweep") return std::make_unique<Sweep>(opts);
  return nullptr;
}

}  // namespace perfbench
