// The differential harness under test: fuzzer determinism, oracle
// agreement on healthy schedulers, fault injection caught and bisected,
// and shrinking.  The 500-seed sweep lives in test_fuzz_stress.cpp under
// the `fuzz` CTest label.
#include <gtest/gtest.h>

#include <string>

#include "liberty/ccl/ccl.hpp"
#include "liberty/core/scheduler.hpp"
#include "liberty/resil/fault_plan.hpp"
#include "liberty/testing/fuzzer.hpp"
#include "liberty/testing/netspec.hpp"
#include "liberty/testing/oracle.hpp"
#include "liberty/testing/shrink.hpp"
#include "test_util.hpp"

namespace {

using liberty::Value;
using liberty::core::SchedulerKind;
using liberty::resil::FaultClass;
using liberty::resil::FaultPlan;
using liberty::resil::FaultSpec;
using liberty::test::params;
using liberty::test::registry;
using liberty::testing::FuzzConfig;
using liberty::testing::NetSpec;
using liberty::testing::OracleConfig;
using liberty::testing::OracleResult;
using liberty::testing::generate_netlist;
using liberty::testing::run_oracle;

/// Generated netlists may weave in CCL flit traffic, so the fuzz suites
/// elaborate against a registry with both catalogs.
liberty::core::ModuleRegistry& fuzz_registry() {
  static liberty::core::ModuleRegistry r = [] {
    liberty::core::ModuleRegistry reg;
    liberty::pcl::register_pcl(reg);
    liberty::ccl::register_ccl(reg);
    return reg;
  }();
  return r;
}

/// A resil fault plan that breaks exactly one scheduler kind: drop the ack
/// on `conn` from `cycle` onward, but only when simulating under
/// `scheduler`.  The dynamic reference stays healthy, so the oracle must
/// blame precisely that candidate.
FaultPlan scheduler_fault(const std::string& scheduler,
                          liberty::core::Cycle cycle,
                          liberty::core::ConnId conn) {
  FaultPlan plan;
  FaultSpec f;
  f.cls = FaultClass::DropAck;
  f.connection = conn;
  f.from_cycle = cycle;
  f.scheduler = scheduler;
  plan.faults.push_back(std::move(f));
  return plan;
}

/// src -> queue -> sink; transfers every cycle, never quiesces, so a fault
/// at any cycle has live traffic to corrupt.
NetSpec pipeline_spec() {
  NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back(
      {"pcl.queue", "q", params({{"depth", Value(std::int64_t{3})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});   // conn 0
  spec.edges.push_back({1, "out", 2, "in"});   // conn 1: AutoAccept sink in
  return spec;
}

TEST(Fuzzer, GenerationIsDeterministic) {
  const FuzzConfig cfg;
  EXPECT_EQ(generate_netlist(7, cfg).render(), generate_netlist(7, cfg).render());
  EXPECT_NE(generate_netlist(1, cfg).render(), generate_netlist(2, cfg).render());
}

TEST(Fuzzer, GeneratedNetlistsElaborate) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const NetSpec spec = generate_netlist(seed, FuzzConfig{});
    liberty::core::Netlist netlist;
    ASSERT_NO_THROW(spec.build(netlist, fuzz_registry()))
        << "seed " << seed << "\n" << spec.render();
  }
}

TEST(Oracle, TwentyFiveSeedsAgree) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const NetSpec spec = generate_netlist(seed, FuzzConfig{});
    const OracleResult r = run_oracle(spec, fuzz_registry());
    EXPECT_TRUE(r.ok) << "seed " << seed << "\n"
                      << r.report() << spec.render();
  }
}

TEST(Oracle, ModuleMixVariantsAgree) {
  FuzzConfig lean;
  lean.use_arbiter = lean.use_tee = lean.use_crossbar = false;
  lean.use_mux = lean.use_buffer = false;
  FuzzConfig loopy;
  loopy.feedback_prob = 1.0;
  for (const FuzzConfig& cfg : {lean, loopy}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const NetSpec spec = generate_netlist(seed, cfg);
      const OracleResult r = run_oracle(spec, fuzz_registry());
      EXPECT_TRUE(r.ok) << "seed " << seed << "\n"
                        << r.report() << spec.render();
    }
  }
}

// The acceptance test for the whole harness: corrupt one scheduler from a
// known cycle and require the oracle to (a) notice, (b) blame the right
// candidate, and (c) bisect to exactly the first corrupted cycle via
// snapshot/restore replay.
TEST(Oracle, InjectedStaticFaultCaughtAndBisected) {
  const FaultPlan plan = scheduler_fault("static", 50, 1);
  OracleConfig cfg;
  cfg.fault_plan = &plan;
  const OracleResult r = run_oracle(pipeline_spec(), fuzz_registry(), cfg);
  ASSERT_FALSE(r.ok);
  ASSERT_EQ(r.divergences.size(), 1u) << r.report();
  const liberty::testing::Divergence& d = r.divergences.front();
  EXPECT_EQ(d.candidate.kind, SchedulerKind::Static);
  EXPECT_EQ(d.first_divergent_cycle, 50u) << d.detail;
  EXPECT_FALSE(d.modules.empty());
  EXPECT_NE(d.detail.find("cycle 50"), std::string::npos) << d.detail;
}

// The coarse phase compares at 16-cycle window boundaries and the bisect
// replays to the last agreeing one: a fault at a window's first cycle, its
// last, just past it, at cycle 0, and deep into the run must each still be
// pinned to its exact cycle and blamed on the faulty candidate alone.  The
// fault sits on conn 0, which transfers on every cycle from cycle 0 on.
TEST(Oracle, BisectPinsFaultsAtWindowEdges) {
  NetSpec spec = pipeline_spec();
  spec.cycles = 3000;
  for (const liberty::core::Cycle at : {0u, 15u, 16u, 17u, 2000u}) {
    const FaultPlan plan = scheduler_fault("static", at, 0);
    OracleConfig cfg;
    cfg.snapshot_every = 16;
    cfg.fault_plan = &plan;
    cfg.candidates = {{SchedulerKind::Static, 0},
                      {SchedulerKind::Compiled, 0, /*opt_level=*/2}};
    const OracleResult r = run_oracle(spec, fuzz_registry(), cfg);
    ASSERT_FALSE(r.ok) << "fault at " << at;
    // The healthy compiled candidate in the same battery still passes.
    ASSERT_EQ(r.divergences.size(), 1u) << r.report();
    const liberty::testing::Divergence& d = r.divergences.front();
    EXPECT_EQ(d.candidate.kind, SchedulerKind::Static);
    EXPECT_EQ(d.first_divergent_cycle, at) << d.detail;
    EXPECT_FALSE(d.modules.empty()) << d.detail;
    EXPECT_NE(d.detail.find("diverge at cycle " + std::to_string(at)),
              std::string::npos)
        << d.detail;
  }
}

TEST(Oracle, InjectedCompiledFaultBlamesEveryOptLevel) {
  const FaultPlan plan = scheduler_fault("compiled", 30, 1);
  OracleConfig cfg;
  cfg.fault_plan = &plan;
  const OracleResult r = run_oracle(pipeline_spec(), fuzz_registry(), cfg);
  ASSERT_FALSE(r.ok);
  // Default battery: static (healthy), compiled -O0 and -O2 (both faulty),
  // and native -O0/-O2 when built in (healthy: native is its own kind).
  ASSERT_EQ(r.divergences.size(), 2u) << r.report();
  int opt_levels_seen = 0;
  for (const liberty::testing::Divergence& d : r.divergences) {
    EXPECT_EQ(d.candidate.kind, SchedulerKind::Compiled);
    EXPECT_EQ(d.first_divergent_cycle, 30u) << d.detail;
    opt_levels_seen |= 1 << d.candidate.opt_level;
  }
  EXPECT_EQ(opt_levels_seen, (1 << 0) | (1 << 2)) << r.report();
}

TEST(Oracle, FaultOnFuzzedNetlistIsCaught) {
  // Same check on a generated topology: fault an early cycle (fuzzed
  // netlists may legitimately quiesce later) on the final connection,
  // which lands on a sink.
  const NetSpec spec = generate_netlist(1, FuzzConfig{});
  const auto conn =
      static_cast<liberty::core::ConnId>(spec.edges.size() - 1);
  const FaultPlan plan = scheduler_fault("static", 5, conn);
  OracleConfig cfg;
  cfg.fault_plan = &plan;
  const OracleResult r = run_oracle(spec, fuzz_registry(), cfg);
  ASSERT_FALSE(r.ok) << "fault on conn " << conn << " went unnoticed";
  EXPECT_GE(r.divergences.front().first_divergent_cycle, 5u);
}

/// src -> probe -> queue -> sink; the probe is splice-able, everything
/// else droppable (modulo port minimums).
NetSpec chain_spec() {
  NetSpec spec = pipeline_spec();
  spec.modules.insert(spec.modules.begin() + 1,
                      liberty::testing::ModuleDecl{"pcl.probe", "p", {}});
  spec.edges = {{0, "out", 1, "in"},    // conn 0: src -> probe
                {1, "out", 2, "in"},    // conn 1: probe -> queue
                {2, "out", 3, "in"}};   // conn 2: queue -> sink (AutoAccept)
  return spec;
}

TEST(Shrink, ReducesToMinimalUnderCustomPredicate) {
  const NetSpec spec = chain_spec();
  // "Failure" = the spec still contains a queue.  Everything else should
  // shrink away: the probe by splicing, source and sink by removal.
  const auto has_queue = [](const NetSpec& s) {
    for (const auto& m : s.modules) {
      if (m.type == "pcl.queue") return true;
    }
    return false;
  };
  liberty::testing::ShrinkStats st;
  const NetSpec reduced =
      liberty::testing::shrink_netlist(spec, registry(), {}, &st, has_queue);
  ASSERT_EQ(reduced.modules.size(), 1u) << reduced.render();
  EXPECT_EQ(reduced.modules.front().type, "pcl.queue");
  EXPECT_TRUE(reduced.edges.empty());
  EXPECT_LE(reduced.cycles, 8u);
  EXPECT_GT(st.attempts, 0u);
  EXPECT_GE(st.attempts, st.accepted);
}

TEST(Shrink, NeverReturnsAPassingSpec) {
  // With a real injected fault the shrinker must preserve "still fails":
  // removing modules renumbers connections away from the faulted id, so
  // every structural candidate passes the oracle and must be rejected —
  // only the cycle budget can legally shrink.
  const NetSpec spec = chain_spec();
  const FaultPlan plan = scheduler_fault("static", 0, 2);
  OracleConfig cfg;
  cfg.fault_plan = &plan;
  ASSERT_FALSE(run_oracle(spec, fuzz_registry(), cfg).ok);

  const NetSpec reduced =
      liberty::testing::shrink_netlist(spec, fuzz_registry(), cfg);
  EXPECT_FALSE(run_oracle(reduced, fuzz_registry(), cfg).ok)
      << reduced.render();
  EXPECT_EQ(reduced.modules.size(), spec.modules.size());
  EXPECT_LT(reduced.cycles, spec.cycles);
}

}  // namespace
