// Scheduler edge cases: degenerate netlists and re-entrant runs must work
// identically under the dynamic and static schedulers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

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

}  // namespace
