// Scheduler edge cases: degenerate netlists and re-entrant runs must work
// identically under the dynamic and static schedulers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "liberty/ccl/ccl.hpp"
#include "liberty/core/scheduler.hpp"
#include "liberty/support/error.hpp"
#include "liberty/testing/fuzzer.hpp"
#include "liberty/testing/netspec.hpp"
#include "liberty/testing/oracle.hpp"
#include "test_util.hpp"

namespace {

using liberty::Value;
using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::Netlist;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::test::params;
using liberty::test::registry;

const SchedulerKind kAllKinds[] = {SchedulerKind::Dynamic,
                                   SchedulerKind::Static};

TEST(SchedulerEdge, EmptyNetlistRunsEveryScheduler) {
  for (const SchedulerKind kind : kAllKinds) {
    Netlist netlist;
    netlist.finalize();
    Simulator sim(netlist, kind);
    EXPECT_EQ(sim.run(10), 10u);
    EXPECT_EQ(sim.now(), 10u);
  }
}

TEST(SchedulerEdge, SingleModuleNetlist) {
  // One module, zero connections: nothing to resolve, but hooks still run.
  for (const SchedulerKind kind : kAllKinds) {
    liberty::testing::NetSpec spec;
    spec.modules.push_back({"pcl.sink", "only", {}});
    Netlist netlist;
    spec.build(netlist, registry());
    Simulator sim(netlist, kind);
    EXPECT_EQ(sim.run(25), 25u);
  }
}

TEST(SchedulerEdge, MoreThreadsThanModules) {
  // The kernel is single-threaded: an oracle candidate asking for 16
  // threads on a 3-module pipeline is rejected instead of silently running
  // on one.
  liberty::testing::NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back(
      {"pcl.queue", "q", params({{"depth", Value(std::int64_t{2})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({1, "out", 2, "in"});
  spec.cycles = 100;

  liberty::testing::OracleConfig cfg;
  cfg.candidates = {{SchedulerKind::Static, 16}};
  EXPECT_THROW((void)run_oracle(spec, registry(), cfg), std::invalid_argument);
  cfg.candidates = {{SchedulerKind::Static, 0}};
  const liberty::testing::OracleResult r = run_oracle(spec, registry(), cfg);
  EXPECT_TRUE(r.ok) << r.report();
}

TEST(SchedulerEdge, RunIsReentrantAfterStop) {
  liberty::testing::NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back(
      {"pcl.sink", "snk",
       params({{"stop_after", Value(std::int64_t{10})}})});
  spec.edges.push_back({0, "out", 1, "in"});

  for (const SchedulerKind kind : kAllKinds) {
    Netlist netlist;
    spec.build(netlist, registry());
    Simulator sim(netlist, kind);

    const Cycle first = sim.run(100);
    EXPECT_GT(first, 0u);
    EXPECT_LT(first, 100u) << "stop_after never fired";

    // run() clears the pending stop on entry, so a second call resumes;
    // the sink's stop condition still holds and re-stops after one cycle.
    const Cycle second = sim.run(100);
    EXPECT_GE(second, 1u);
    EXPECT_LT(second, 100u);
    EXPECT_EQ(sim.now(), first + second);
  }
}

/// A scheduler whose resolve phase does nothing: channels that only react()
/// or the kernel's defaults would drive stay unresolved.
class NoResolveScheduler : public liberty::core::SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;
  [[nodiscard]] std::string_view kind_name() const override {
    return "no-resolve";
  }

 private:
  void resolve_cycle() override {}
};

TEST(SchedulerEdge, EndOfCycleAuditRejectsUnresolvedConnection) {
  // Whatever cycle_start leaves open must be reported, naming the first
  // open connection, before anything is committed.
  liberty::testing::NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back(
      {"pcl.queue", "q", params({{"depth", Value(std::int64_t{2})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({1, "out", 2, "in"});
  Netlist netlist;
  spec.build(netlist, registry());

  NoResolveScheduler sched(netlist);
  try {
    sched.run_cycle(3);
    FAIL() << "an unresolved connection passed the end-of-cycle audit";
  } catch (const liberty::SimulationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("internal: unresolved connection"), std::string::npos)
        << msg;
    // The aborted cycle's channel state is still in place.
    const Connection* open = nullptr;
    for (const auto& c : netlist.connections()) {
      if (!c->fully_resolved()) {
        open = c.get();
        break;
      }
    }
    ASSERT_NE(open, nullptr);
    EXPECT_NE(msg.find(open->describe()), std::string::npos) << msg;
    EXPECT_NE(msg.find("at end of cycle 3"), std::string::npos) << msg;
  }
  EXPECT_EQ(sched.transfers_committed(), 0u);
  EXPECT_EQ(sched.cycles_run(), 0u);
}

// ---------------------------------------------------------------------------
// Hook-free resolve (AnalyzedScheduler)

liberty::core::ModuleRegistry& fuzz_registry() {
  static liberty::core::ModuleRegistry r = [] {
    liberty::core::ModuleRegistry reg;
    liberty::pcl::register_pcl(reg);
    liberty::ccl::register_ccl(reg);
    return reg;
  }();
  return r;
}

/// Run `spec` under `kind`; the simulator's scheduler holds the counters.
std::unique_ptr<Simulator> run_spec(Netlist& netlist,
                                    const liberty::testing::NetSpec& spec,
                                    SchedulerKind kind) {
  spec.build(netlist, fuzz_registry());
  auto sim = std::make_unique<Simulator>(netlist, kind);
  sim->run(spec.cycles);
  return sim;
}

// Without a multi-node or self-loop SCC every channel resolves at its own
// walk step, so the static scheduler drops the per-resolution hooks and
// counts the constant 2 x connections per cycle: the same totals the
// hooked dynamic scheduler observes one resolution at a time.
TEST(SchedulerEdge, AcyclicScheduleResolvesHookFree) {
  liberty::testing::FuzzConfig acyclic;
  acyclic.feedback_prob = 0.0;
  const liberty::testing::NetSpec spec =
      liberty::testing::generate_netlist(5, acyclic);
  Netlist dn;
  const auto dyn = run_spec(dn, spec, SchedulerKind::Dynamic);
  Netlist sn;
  const auto st = run_spec(sn, spec, SchedulerKind::Static);
  const auto& a =
      dynamic_cast<const liberty::core::AnalyzedScheduler&>(st->scheduler());
  ASSERT_EQ(a.largest_scc(), 1u) << spec.render();
  EXPECT_TRUE(a.hook_free());
  EXPECT_EQ(a.resolutions(),
            2 * sn.connection_count() * a.cycles_run());
  EXPECT_EQ(a.resolutions(), dyn->scheduler().resolutions());
  EXPECT_EQ(a.transfers_committed(), dyn->scheduler().transfers_committed());
  EXPECT_EQ(a.cleanup_activations(), 0u);
  EXPECT_EQ(st->state_digest(), dyn->state_digest());
}

// A multi-node SCC keeps the hooked path: its fixed-point loop detects
// progress by counting resolutions.  Two funcmaps wired into a ring form a
// combinational loop no react can start; the SCC endgame defaults it.
TEST(SchedulerEdge, MultiNodeSccKeepsTheHookedResolve) {
  liberty::testing::NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.modules.push_back({"pcl.funcmap", "f1", {}});
  spec.modules.push_back({"pcl.funcmap", "f2", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({2, "out", 3, "in"});
  spec.edges.push_back({3, "out", 2, "in"});  // closes the ring
  spec.cycles = 200;
  Netlist sn;
  const auto st = run_spec(sn, spec, SchedulerKind::Static);
  const auto& a =
      dynamic_cast<const liberty::core::AnalyzedScheduler&>(st->scheduler());
  ASSERT_GE(a.largest_scc(), 2u);
  EXPECT_FALSE(a.hook_free());
  EXPECT_GT(a.fixedpoint_passes(), 0u);
  Netlist dn;
  const auto dyn = run_spec(dn, spec, SchedulerKind::Dynamic);
  EXPECT_EQ(a.resolutions(), dyn->scheduler().resolutions());
  EXPECT_EQ(a.transfers_committed(), dyn->scheduler().transfers_committed());
  EXPECT_EQ(st->state_digest(), dyn->state_digest());
}

}  // namespace
