// The elaboration-time optimizer (liberty::opt): per-pass unit tests, the
// bit-identity oracle at -O1/-O2 across all schedulers, constants across
// snapshot/restore, and the annotated-DOT goldens.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "liberty/core/lss/elaborator.hpp"
#include "liberty/core/lss/parser.hpp"
#include "liberty/core/netlist.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/testing/netspec.hpp"
#include "liberty/testing/oracle.hpp"
#include "test_util.hpp"

#ifndef LIBERTY_REPO_ROOT
#error "LIBERTY_REPO_ROOT must point at the repository checkout"
#endif

namespace {

using liberty::Value;
using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::Module;
using liberty::core::Netlist;
using liberty::core::OptPlan;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::opt::OptOptions;
using liberty::opt::OptReport;
using liberty::test::params;
using liberty::test::registry;
using liberty::testing::Candidate;
using liberty::testing::NetSpec;
using liberty::testing::OracleConfig;
using liberty::testing::OracleResult;
using liberty::testing::run_oracle;

Module& add(Netlist& nl, const std::string& type, const std::string& name,
            liberty::core::Params p = {}) {
  return nl.add(registry().instantiate(type, name, p));
}

liberty::core::Params token_tap() {
  return params({{"kind", Value(std::string("token"))},
                 {"period", Value(std::int64_t{1})}});
}

/// token source -> probe -> sink: everything is provably constant.
Netlist& build_const_line(Netlist& nl) {
  Module& src = add(nl, "pcl.source", "src", token_tap());
  Module& probe = add(nl, "pcl.probe", "p");
  Module& sink = add(nl, "pcl.sink", "snk");
  nl.connect(src.out("out"), probe.in("in"));
  nl.connect(probe.out("out"), sink.in("in"));
  nl.finalize();
  return nl;
}

std::uint64_t counter(Simulator& sim, const std::string& name) {
  std::uint64_t got = 0;
  sim.scheduler().visit_counters([&](std::string_view n, std::uint64_t v) {
    if (n == name) got = v;
  });
  return got;
}

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

TEST(OptConst, LevelZeroAttachesNoPlan) {
  Netlist nl;
  build_const_line(nl);
  const OptReport rep = liberty::opt::optimize(nl, OptOptions::for_level(0));
  EXPECT_EQ(rep.level, 0);
  EXPECT_EQ(nl.opt_plan(), nullptr);
  EXPECT_NE(rep.summary().find("-O0"), std::string::npos);
}

TEST(OptConst, TokenTapPropagatesThroughPassThrough) {
  Netlist nl;
  build_const_line(nl);
  const OptReport rep = liberty::opt::optimize(nl);
  ASSERT_NE(nl.opt_plan(), nullptr);
  // Forward constants: src->probe (declared), probe->sink (pass-through).
  EXPECT_EQ(rep.const_forwards, 2u);
  // Backward constants: probe->sink ack (gate-free AutoAccept := enable),
  // then src->probe ack (pass-through ack chaining).
  EXPECT_EQ(rep.const_backwards, 2u);
  // Three channels actually pre-resolve per cycle: sending the const
  // forward on probe->sink fires the AutoAccept hook, which resolves that
  // connection's ack before apply_consts reaches the (redundant) backward
  // entry.  The probe never reacts either way.
  Simulator sim(nl, SchedulerKind::Dynamic);
  sim.run(50);
  EXPECT_EQ(counter(sim, "opt.pre_resolved"), 3u * 50u);
}

TEST(OptConst, WindowedOrStampedSourcesAreNotConstant) {
  Netlist nl;
  Module& src = add(nl, "pcl.source", "src",
                    params({{"kind", Value(std::string("token"))},
                            {"period", Value(std::int64_t{1})},
                            {"count", Value(std::int64_t{10})}}));
  Module& sink = add(nl, "pcl.sink", "snk");
  nl.connect(src.out("out"), sink.in("in"));
  nl.finalize();
  const OptReport rep = liberty::opt::optimize(nl);
  EXPECT_EQ(rep.const_forwards, 0u);
}

TEST(OptConst, PerPassFlagDisablesConstprop) {
  Netlist nl;
  build_const_line(nl);
  OptOptions opts;  // -O2 defaults
  opts.constprop = false;
  const OptReport rep = liberty::opt::optimize(nl, opts);
  EXPECT_EQ(rep.const_forwards, 0u);
  EXPECT_EQ(rep.const_backwards, 0u);
  ASSERT_NE(nl.opt_plan(), nullptr);  // other passes still attach a plan
}

TEST(OptConst, ConstantsSurviveSnapshotRestore) {
  Netlist nl;
  build_const_line(nl);
  liberty::opt::optimize(nl);
  Simulator sim(nl, SchedulerKind::Static);
  std::vector<std::string> trace;
  sim.observe_transfers([&trace](const Connection& c, Cycle cycle) {
    trace.push_back(std::to_string(cycle) + "#" + std::to_string(c.id()));
  });
  sim.run(40);
  const auto snap = sim.snapshot();
  trace.clear();
  sim.run(40);
  const std::vector<std::string> first = trace;
  sim.restore(snap);
  trace.clear();
  sim.run(40);
  EXPECT_EQ(first, trace) << "replay after restore diverged at -O2";
  EXPECT_EQ(first.size(), 2u * 40u);  // both connections transfer each cycle
}

// ---------------------------------------------------------------------------
// Dead-logic elision
// ---------------------------------------------------------------------------

TEST(OptDce, PureStatelessModuleWithConstDrivesIsElided) {
  Netlist nl;
  Module& src = add(nl, "pcl.source", "src", token_tap());
  Module& fm = add(nl, "pcl.funcmap", "f");
  nl.connect(src.out("out"), fm.in("in"));  // funcmap out left unconnected
  nl.finalize();
  const OptReport rep = liberty::opt::optimize(nl);
  ASSERT_NE(nl.opt_plan(), nullptr);
  EXPECT_EQ(rep.elided_modules, 1u);
  EXPECT_TRUE(nl.opt_plan()->module_elided(fm.id()));
  EXPECT_FALSE(nl.opt_plan()->module_elided(src.id()));
  // And the elided module really is skipped while behaviour is preserved.
  Simulator sim(nl, SchedulerKind::Dynamic);
  sim.run(30);
  EXPECT_EQ(counter(sim, "opt.elided_modules"), 1u);
}

TEST(OptDce, StatObservedModulesAreNeverElided) {
  // Identical topology but with a Probe: it counts items (stats), so it is
  // not pure and must keep running no matter how constant its channels are.
  Netlist nl;
  Module& src = add(nl, "pcl.source", "src", token_tap());
  Module& probe = add(nl, "pcl.probe", "p");
  nl.connect(src.out("out"), probe.in("in"));
  nl.finalize();
  const OptReport rep = liberty::opt::optimize(nl);
  EXPECT_EQ(rep.elided_modules, 0u);
  EXPECT_FALSE(nl.opt_plan() != nullptr &&
               nl.opt_plan()->module_elided(probe.id()));
}

TEST(OptDce, FlagDisablesElision) {
  Netlist nl;
  Module& src = add(nl, "pcl.source", "src", token_tap());
  add(nl, "pcl.funcmap", "f");
  nl.connect(src.out("out"), nl.modules()[1]->in("in"));
  nl.finalize();
  OptOptions opts;
  opts.dce = false;
  EXPECT_EQ(liberty::opt::optimize(nl, opts).elided_modules, 0u);
}

// ---------------------------------------------------------------------------
// Stateless-chain fusion
// ---------------------------------------------------------------------------

/// counter source -> probe -> funcmap -> probe -> sink.
NetSpec chain_netspec() {
  NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back({"pcl.probe", "p0", {}});
  spec.modules.push_back({"pcl.funcmap", "f", {}});
  spec.modules.push_back({"pcl.probe", "p1", {}});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges = {{0, "out", 1, "in"},
                {1, "out", 2, "in"},
                {2, "out", 3, "in"},
                {3, "out", 4, "in"}};
  return spec;
}

TEST(OptFuse, MaximalChainIsFusedOnce) {
  Netlist nl;
  chain_netspec().build(nl, registry());
  const OptReport rep = liberty::opt::optimize(nl);
  ASSERT_EQ(rep.fused_chains, 1u);
  EXPECT_EQ(rep.fused_modules, 3u);
  const OptPlan* plan = nl.opt_plan();
  ASSERT_NE(plan, nullptr);
  const OptPlan::Chain& ch = plan->chains.front();
  ASSERT_EQ(ch.members.size(), 3u);
  ASSERT_EQ(ch.links.size(), 4u);
  ASSERT_EQ(ch.transforms.size(), 3u);
  EXPECT_EQ(ch.members.front()->name(), "p0");
  EXPECT_EQ(ch.members.back()->name(), "p1");
  for (const Module* m : ch.members) {
    EXPECT_EQ(plan->chain_of_module[m->id()], 0);
  }
  // Every interior link keeps its single producer/consumer endpoints: the
  // chain annotation never rewires ports.
  for (const Connection* link : ch.links) {
    EXPECT_NE(link->producer(), nullptr);
    EXPECT_NE(link->consumer(), nullptr);
  }
  // One fused sweep per direction per cycle.
  Simulator sim(nl, SchedulerKind::Dynamic);
  sim.run(25);
  EXPECT_EQ(counter(sim, "opt.fused_chains"), 1u);
  EXPECT_EQ(counter(sim, "opt.fwd_sweeps"), 25u);
  EXPECT_EQ(counter(sim, "opt.bwd_sweeps"), 25u);
}

TEST(OptFuse, TransferGateBlocksFusion) {
  // A control override (transfer gate) on the tail link must keep that
  // module unfused: the gate's deferred-ack protocol is not sweepable.
  Netlist nl;
  chain_netspec().build(nl, registry());
  nl.connections()[3]->set_transfer_gate([](const Value&) { return true; });
  const OptReport rep = liberty::opt::optimize(nl);
  // p0 and f still pair up (their links are gate-free); p1 cannot join.
  ASSERT_EQ(rep.fused_chains, 1u);
  EXPECT_EQ(rep.fused_modules, 2u);
  for (const OptPlan::Chain& ch : nl.opt_plan()->chains) {
    for (const Module* m : ch.members) EXPECT_NE(m->name(), "p1");
  }
}

TEST(OptFuse, PureRingIsNotFused) {
  Netlist nl;
  Module& a = add(nl, "pcl.probe", "a");
  Module& b = add(nl, "pcl.probe", "b");
  Module& c = add(nl, "pcl.probe", "c");
  nl.connect(a.out("out"), b.in("in"));
  nl.connect(b.out("out"), c.in("in"));
  nl.connect(c.out("out"), a.in("in"));
  nl.finalize();
  const OptReport rep = liberty::opt::optimize(nl);
  EXPECT_EQ(rep.fused_chains, 0u);
}

TEST(OptFuse, FanOutModulesAreNotFused) {
  // Tee preserves port widths > 1; it declares no pass-through and must
  // never appear in a chain.
  Netlist nl;
  Module& src = add(nl, "pcl.source", "src", token_tap());
  Module& tee = add(nl, "pcl.tee", "t");
  Module& s0 = add(nl, "pcl.sink", "s0");
  Module& s1 = add(nl, "pcl.sink", "s1");
  nl.connect(src.out("out"), tee.in("in"));
  nl.connect(tee.out("out"), s0.in("in"));
  nl.connect(tee.out("out"), s1.in("in"));
  nl.finalize();
  const OptReport rep = liberty::opt::optimize(nl);
  EXPECT_EQ(rep.fused_chains, 0u);
  EXPECT_EQ(nl.opt_plan()->chain_of_module[tee.id()], -1);
}

// ---------------------------------------------------------------------------
// Run-to-run determinism
// ---------------------------------------------------------------------------

/// Short burst, long idle tail: src (count=20) -> delay -> probe -> sink.
NetSpec burst_netspec() {
  NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})},
                                  {"count", Value(std::int64_t{20})}})});
  spec.modules.push_back(
      {"pcl.delay", "d", params({{"latency", Value(std::int64_t{2})}})});
  spec.modules.push_back({"pcl.probe", "p", {}});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges = {{0, "out", 1, "in"}, {1, "out", 2, "in"}, {2, "out", 3, "in"}};
  spec.cycles = 400;
  return spec;
}

std::map<std::string, std::uint64_t> counters_of_fresh_run(
    SchedulerKind kind) {
  Netlist nl;
  burst_netspec().build(nl, registry());
  liberty::opt::optimize(nl, OptOptions::for_level(2));
  Simulator sim(nl, kind);
  sim.run(400);
  std::map<std::string, std::uint64_t> out;
  sim.scheduler().visit_counters([&](std::string_view n, std::uint64_t v) {
    out.emplace(std::string(n), v);
  });
  return out;
}

TEST(OptDeterminism, O2CountersRepeatAcrossFreshRuns) {
  // Every -O2 scheduling decision is fixed by the netlist's structure, so
  // two runs of one spec do the same work and report the same counters.
  liberty::gen::ensure_registered();
  for (const SchedulerKind kind :
       {SchedulerKind::Static, SchedulerKind::Compiled}) {
    const auto first = counters_of_fresh_run(kind);
    EXPECT_FALSE(first.empty()) << (int)kind;
    EXPECT_GT(first.at("react_calls"), 0u) << (int)kind;
    EXPECT_EQ(first, counters_of_fresh_run(kind)) << (int)kind;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity: every optimized scheduler against the -O0 dynamic reference
// ---------------------------------------------------------------------------

std::vector<Candidate> optimized_battery() {
  return {Candidate{SchedulerKind::Dynamic, 0, 2},
          Candidate{SchedulerKind::Static, 0, 1},
          Candidate{SchedulerKind::Static, 0, 2},
          Candidate{SchedulerKind::Compiled, 0, 1},
          Candidate{SchedulerKind::Compiled, 0, 2}};
}

TEST(OptOracle, OptimizedSchedulersMatchUnoptimizedReference) {
  OracleConfig cfg;
  cfg.candidates = optimized_battery();
  for (const NetSpec& spec : {chain_netspec(), burst_netspec()}) {
    const OracleResult r = run_oracle(spec, registry(), cfg);
    EXPECT_TRUE(r.ok) << r.report() << spec.render();
  }
}

TEST(OptOracle, ConstLineMatchesUnderSnapshotBisectionConfig) {
  NetSpec spec;
  spec.modules.push_back({"pcl.source", "src", token_tap()});
  spec.modules.push_back({"pcl.probe", "p", {}});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges = {{0, "out", 1, "in"}, {1, "out", 2, "in"}};
  OracleConfig cfg;
  cfg.candidates = optimized_battery();
  cfg.snapshot_every = 8;  // exercise restore with constants frequently
  const OracleResult r = run_oracle(spec, registry(), cfg);
  EXPECT_TRUE(r.ok) << r.report();
}

// ---------------------------------------------------------------------------
// Annotated DOT goldens
// ---------------------------------------------------------------------------

bool updating() {
  const char* env = std::getenv("LIBERTY_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

void compare_or_update(const std::string& actual, const std::string& leaf) {
  const std::string path =
      std::string(LIBERTY_REPO_ROOT) + "/tests/golden/" + leaf;
  if (updating()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << path << " is missing; regenerate with LIBERTY_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "output of " << leaf << " drifted from its golden; if intentional, "
      << "rerun with LIBERTY_UPDATE_GOLDEN=1 and review the diff";
}

void elaborate_funnel(Netlist& nl) {
  const auto spec = liberty::core::lss::parse_file(
      std::string(LIBERTY_REPO_ROOT) + "/examples/specs/funnel.lss");
  liberty::core::lss::Elaborator elab(registry());
  elab.elaborate(spec, nl);
  nl.finalize();
}

TEST(OptDot, FunnelBeforeAndAfterO2MatchGoldens) {
  Netlist nl;
  elaborate_funnel(nl);
  std::ostringstream before;
  liberty::opt::write_annotated_dot(nl, before);
  // With no plan attached the annotated dump degrades to the plain
  // structural dump.
  std::ostringstream plain;
  nl.write_dot(plain);
  EXPECT_EQ(before.str(), plain.str());
  compare_or_update(before.str(), "funnel.O0.dot");

  liberty::opt::optimize(nl);
  std::ostringstream after;
  liberty::opt::write_annotated_dot(nl, after);
  compare_or_update(after.str(), "funnel.O2.dot");
}

TEST(OptDot, MixedNetlistShowsEveryAnnotation) {
  // token tap -> probe chain -> sink, plus an elided funcmap stub on its
  // own tap.
  Netlist nl;
  Module& src = add(nl, "pcl.source", "src", token_tap());
  Module& p0 = add(nl, "pcl.probe", "p0");
  Module& p1 = add(nl, "pcl.probe", "p1");
  Module& snk = add(nl, "pcl.sink", "snk");
  Module& src2 = add(nl, "pcl.source", "src2", token_tap());
  Module& dead = add(nl, "pcl.funcmap", "dead");
  nl.connect(src.out("out"), p0.in("in"));
  nl.connect(p0.out("out"), p1.in("in"));
  nl.connect(p1.out("out"), snk.in("in"));
  nl.connect(src2.out("out"), dead.in("in"));
  nl.finalize();
  liberty::opt::optimize(nl);
  std::ostringstream os;
  liberty::opt::write_annotated_dot(nl, os);
  compare_or_update(os.str(), "opt_mix.O2.dot");
}

}  // namespace
