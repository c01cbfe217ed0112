// E8 (paper §2.3, ref [22]): fixing the model of computation makes the
// specification analyzable — the statically scheduled simulator beats the
// dynamic fixed-point scheduler (see docs/scheduling.md).
//
// Shape expectation: static scheduling reduces react() invocations per
// cycle substantially (it calls each handler O(1) times on acyclic
// netlists) and wins wall-clock across netlist types.  All schedulers
// produce identical results (asserted here and across the test suite).
//
// The elaboration-time optimizer (docs/optimizer.md) rides the same
// harness: every (netlist, scheduler) pair runs at -O0 and again at -O2,
// and the JSON records both so the optimizer's effect is an A/B diff on
// identical workloads.  Two netlists exist specifically for it:
// "passthrough x32" is dominated by stateless chain fusion (16 identity
// FuncMaps per lane collapse into one fused handler), and "const fold x32"
// by constant propagation + dead-logic elimination (an expensive pure
// transform folds once at elaboration instead of 512 times per cycle).
//
// Artifact: BENCH_scheduler.json in the working directory, one record per
// (netlist, scheduler, opt level) with wall-clock, react-call and
// kernel.opt.* counts.
#include "bench_util.hpp"

#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/opt/optimizer.hpp"

using namespace liberty;
using namespace liberty::bench;

namespace {

struct NetKind {
  const char* name;
  void (*build)(core::Netlist&);
};

void build_chains(core::Netlist& nl) {
  for (int i = 0; i < 64; ++i) {
    auto& src = nl.make<pcl::Source>(
        "s" + std::to_string(i),
        core::Params().set("kind", "counter").set("period", 1));
    auto& q = nl.make<pcl::Queue>("q" + std::to_string(i),
                                  core::Params().set("depth", 4));
    auto& d = nl.make<pcl::Delay>("d" + std::to_string(i),
                                  core::Params().set("latency", 3));
    auto& k = nl.make<pcl::Sink>("k" + std::to_string(i), core::Params());
    nl.connect(src.out("out"), q.in("in"));
    nl.connect(q.out("out"), d.in("in"));
    nl.connect(d.out("out"), k.in("in"));
  }
}

void build_mesh(core::Netlist& nl, std::size_t side) {
  ccl::Fabric mesh = ccl::build_mesh(nl, "mesh", side, side);
  const std::size_t nodes = side * side;
  for (std::size_t i = 0; i < nodes; ++i) {
    auto& g = nl.make<ccl::TrafficGen>(
        "g" + std::to_string(i),
        core::Params().set("id", static_cast<std::int64_t>(i))
            .set("nodes", static_cast<std::int64_t>(nodes))
            .set("rate", 0.15).set("pattern", "uniform").set("seed", 7));
    auto& s = nl.make<ccl::TrafficSink>("k" + std::to_string(i),
                                        core::Params());
    nl.connect_at(g.out("out"), 0, mesh.inject_port(i), 0);
    nl.connect_at(mesh.eject_port(i), 0, s.in("in"), 0);
  }
}

void build_mesh_4x4(core::Netlist& nl) { build_mesh(nl, 4); }
void build_mesh_8x8(core::Netlist& nl) { build_mesh(nl, 8); }

void build_arbiters(core::Netlist& nl) {
  // Combinational-heavy: arbiter trees (lots of react() activity).
  for (int t = 0; t < 8; ++t) {
    auto& arb = nl.make<pcl::Arbiter>("arb" + std::to_string(t),
                                      core::Params());
    auto& sink = nl.make<pcl::Sink>("k" + std::to_string(t), core::Params());
    for (int i = 0; i < 8; ++i) {
      auto& src = nl.make<pcl::Source>(
          "s" + std::to_string(t) + "_" + std::to_string(i),
          core::Params().set("kind", "token").set("period", 2));
      nl.connect(src.out("out"), arb.in("in"));
    }
    nl.connect(arb.out("out"), sink.in("in"));
  }
}

void build_passthrough(core::Netlist& nl) {
  // Fusion-dominated: 32 lanes of 16 identity FuncMaps between a counter
  // source and a sink.  At -O2 each lane's FuncMap run collapses into one
  // fused forward/backward sweep; at -O0 every FuncMap reacts every cycle.
  for (int lane = 0; lane < 32; ++lane) {
    const std::string l = std::to_string(lane);
    auto& src = nl.make<pcl::Source>(
        "s" + l, core::Params().set("kind", "counter").set("period", 1));
    core::Module* prev = &src;
    for (int i = 0; i < 16; ++i) {
      auto& f = nl.make<pcl::FuncMap>("f" + l + "_" + std::to_string(i),
                                      core::Params());
      nl.connect(prev->out("out"), f.in("in"));
      prev = &f;
    }
    auto& k = nl.make<pcl::Sink>("k" + l, core::Params());
    nl.connect(prev->out("out"), k.in("in"));
  }
}

void build_const_fold(core::Netlist& nl) {
  // Constant-folding-dominated: 32 lanes of token taps feeding 16 FuncMaps
  // whose transform is a deliberately expensive (but pure) integer mixer.
  // At -O0 every cycle pays 512 mixer evaluations; at -O2 constant
  // propagation folds the token through each transform once at elaboration
  // and dead-logic elimination elides the lane bodies, so the mixers never
  // run during simulation.
  const auto mix = [](const Value& v) {
    std::uint64_t h = v.is_int() ? static_cast<std::uint64_t>(v.as_int())
                                 : 0x9e3779b97f4a7c15ull;
    for (int r = 0; r < 64; ++r) {
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 29;
    }
    return Value(static_cast<std::int64_t>(h >> 1));
  };
  for (int lane = 0; lane < 32; ++lane) {
    const std::string l = std::to_string(lane);
    auto& src = nl.make<pcl::Source>(
        "s" + l, core::Params().set("kind", "token").set("period", 1));
    core::Module* prev = &src;
    for (int i = 0; i < 16; ++i) {
      auto& f = nl.make<pcl::FuncMap>("f" + l + "_" + std::to_string(i),
                                      core::Params());
      f.set_fn(mix);
      nl.connect(prev->out("out"), f.in("in"));
      prev = &f;
    }
    auto& k = nl.make<pcl::Sink>("k" + l, core::Params());
    nl.connect(prev->out("out"), k.in("in"));
  }
}

struct Result {
  double wall_s = 0.0;
  double kcps = 0.0;             // kcycles per wall second
  std::uint64_t react_calls = 0;
  double reacts_per_cycle = 0.0;
  std::uint64_t transfers = 0;
  std::vector<std::pair<std::string, std::uint64_t>> kernel;
};

Result run_once(void (*build)(core::Netlist&), const SchedulerSpec& spec,
                std::uint64_t cycles, int opt_level) {
  core::Netlist nl;
  build(nl);
  nl.finalize();
  if (opt_level > 0) {
    opt::optimize(nl, opt::OptOptions::for_level(opt_level));
  }
  Result r;
  core::Simulator sim(nl, spec.kind);  // construction is not timed
  r.wall_s = time_seconds([&] { sim.run(cycles); });
  r.kcps = static_cast<double>(cycles) / 1e3 / r.wall_s;
  r.react_calls = sim.scheduler().react_calls();
  r.reacts_per_cycle = static_cast<double>(r.react_calls) /
                       static_cast<double>(cycles);
  for (const auto& c : nl.connections()) r.transfers += c->transfer_count();
  r.kernel = kernel_counters(sim.scheduler());
  return r;
}

Result run(void (*build)(core::Netlist&), const SchedulerSpec& spec,
           std::uint64_t cycles, int opt_level) {
  // Best of two independent runs: at 20k cycles a single measurement on a
  // shared/single-core host carries enough timer and scheduling-quantum
  // noise to flip O2/O0 ratios; the minimum wall time of two fresh
  // elaborate+simulate passes is a far more stable estimator.  Simulation
  // results and counters are identical across repeats (no scheduling
  // decision depends on timing), so only the timing is folded.
  Result best = run_once(build, spec, cycles, opt_level);
  const Result again = run_once(build, spec, cycles, opt_level);
  if (again.wall_s < best.wall_s) {
    best.wall_s = again.wall_s;
    best.kcps = again.kcps;
  }
  return best;
}

}  // namespace

int main() {
  std::printf("E8: dynamic vs static vs compiled scheduling "
              "(ref [22] optimization)\n\n");
  liberty::gen::ensure_registered();
  const NetKind kinds[] = {{"pipelines x64", build_chains},
                           {"mesh 4x4", build_mesh_4x4},
                           {"mesh 8x8", build_mesh_8x8},
                           {"arbiter trees", build_arbiters},
                           {"passthrough x32", build_passthrough},
                           {"const fold x32", build_const_fold}};
  constexpr std::uint64_t kCycles = 20'000;
  constexpr int kOptLevels[] = {0, 2};
  auto base_specs = scheduler_matrix();
  base_specs.push_back({"compiled", core::SchedulerKind::Compiled});

  FILE* json_file = std::fopen("BENCH_scheduler.json", "w");
  JsonWriter json(json_file);
  json.begin_object();
  json.field("bench", "scheduler");
  json.field("cycles", kCycles);
  json.begin_array("netlists");

  Table t({"netlist", "scheduler", "O0 kc/s", "O2 kc/s", "O2/O0",
           "O0 react/cyc", "O2 react/cyc"});
  bool diverged = false;
  for (const auto& k : kinds) {
    const auto& specs = base_specs;
    json.object();
    json.field("name", k.name);
    json.begin_array("schedulers");
    // results[spec][level index]
    std::vector<std::vector<Result>> results;
    for (const auto& spec : specs) {
      auto& per_level = results.emplace_back();
      for (const int level : kOptLevels) {
        const Result r = run(k.build, spec, kCycles, level);
        per_level.push_back(r);
        json.object();
        json.field("name",
                   spec.label + "-O" + std::to_string(level));
        json.field("scheduler", spec.label);
        json.field("opt_level", static_cast<std::uint64_t>(level));
        json.field("wall_s", r.wall_s);
        json.field("kcycles_per_s", r.kcps);
        json.field("react_calls", r.react_calls);
        json.field("reacts_per_cycle", r.reacts_per_cycle);
        json.field("transfers", r.transfers);
        emit_kernel_counters(json, r.kernel);
        json.end_object();
      }
    }
    json.end_array();
    json.end_object();

    // Every scheduler at every opt level must complete the same transfers.
    const std::uint64_t expect = results[0][0].transfers;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      for (std::size_t l = 0; l < std::size(kOptLevels); ++l) {
        if (results[s][l].transfers != expect) {
          std::printf("ERROR: %s-O%d diverged on %s (%llu vs %llu)\n",
                      specs[s].label.c_str(), kOptLevels[l], k.name,
                      (unsigned long long)results[s][l].transfers,
                      (unsigned long long)expect);
          diverged = true;
        }
      }
    }

    for (std::size_t s = 0; s < specs.size(); ++s) {
      const Result& o0 = results[s][0];
      const Result& o2 = results[s][1];
      t.row({k.name, specs[s].label, fmt(o0.kcps, 1), fmt(o2.kcps, 1),
             fmt(o2.kcps / o0.kcps, 2), fmt(o0.reacts_per_cycle, 2),
             fmt(o2.reacts_per_cycle, 2)});
    }
  }
  json.end_array();
  json.end_object();
  std::fclose(json_file);
  if (diverged) return 1;

  t.print();
  std::printf("\nshape check: identical results at every opt level; static "
              "scheduling reduces handler invocations and wins wall-clock; "
              "-O2 wins again on top wherever constants or fused chains "
              "exist (passthrough x32 and const fold x32 are built to show "
              "fusion and folding respectively).\n"
              "wrote BENCH_scheduler.json\n");
  return 0;
}
