// Scheduler edge cases: degenerate netlists and re-entrant runs must work
// identically under the dynamic and static schedulers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "liberty/core/scheduler.hpp"
#include "liberty/support/error.hpp"
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

}  // namespace
