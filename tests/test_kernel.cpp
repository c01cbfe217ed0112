// Kernel semantics: the three-signal handshake, monotone resolution,
// default control, partial specification, control override, and
// scheduler equivalence.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "liberty/core/netlist.hpp"
#include "liberty/core/scheduler.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/support/error.hpp"
#include "test_util.hpp"

namespace {

using liberty::Value;
using liberty::core::AckMode;
using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::Module;
using liberty::core::Netlist;
using liberty::core::Params;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::pcl::Queue;
using liberty::pcl::Sink;
using liberty::pcl::Source;
using liberty::test::params;

class KernelPipeline : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(KernelPipeline, SourceQueueSinkDeliversEverythingInOrder) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 50}, {"period", 1}}));
  auto& q = nl.make<Queue>("q", params({{"depth", 4}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), q.in("in"));
  nl.connect(q.out("out"), sink.in("in"));
  nl.finalize();

  std::vector<std::int64_t> seen;
  sink.set_consume_hook(
      [&seen](const Value& v, Cycle) { seen.push_back(v.as_int()); });

  Simulator sim(nl, GetParam());
  sim.run(200);

  ASSERT_EQ(seen.size(), 50u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(src.emitted(), 50u);
  EXPECT_EQ(sink.consumed(), 50u);
}

TEST_P(KernelPipeline, BackpressurePropagatesThroughQueue) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 40}, {"period", 1}}));
  auto& q = nl.make<Queue>("q", params({{"depth", 2}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), q.in("in"));
  Connection& down = nl.connect(q.out("out"), sink.in("in"));
  nl.finalize();

  // Gate the downstream link: accept only on even values of an external
  // counter, halving throughput.  This is the user-level control override
  // of §2.1 — no module code was touched.
  std::uint64_t beat = 0;
  down.set_transfer_gate([&beat](const Value&) { return (beat++ % 2) == 0; });

  Simulator sim(nl, GetParam());
  sim.run(200);

  EXPECT_EQ(sink.consumed(), 40u);
  // The queue must have filled and stalled the source at least once.
  EXPECT_GT(q.stats().counter_value("full_stalls"), 0u);
}

TEST_P(KernelPipeline, PartialSpecificationStillSimulates) {
  // A source with an unconnected output and a sink with an unconnected
  // input: both must run under default semantics (§2.2) without errors.
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 10}, {"period", 1}}));
  auto& sink = nl.make<Sink>("sink", Params());
  (void)src;
  (void)sink;
  nl.finalize();

  Simulator sim(nl, GetParam());
  sim.run(20);
  EXPECT_EQ(sink.consumed(), 0u);
}

TEST_P(KernelPipeline, StopRequestEndsRunEarly) {
  Netlist nl;
  auto& src = nl.make<Source>("src", params({{"kind", "token"}}));
  auto& sink = nl.make<Sink>("sink", params({{"stop_after", 5}}));
  nl.connect(src.out("out"), sink.in("in"));
  nl.finalize();

  Simulator sim(nl, GetParam());
  const Cycle ran = sim.run(1000);
  EXPECT_LT(ran, 1000u);
  EXPECT_EQ(sink.consumed(), 5u);
}

INSTANTIATE_TEST_SUITE_P(BothSchedulers, KernelPipeline,
                         ::testing::Values(SchedulerKind::Dynamic,
                                           SchedulerKind::Static),
                         [](const auto& info) {
                           return info.param == SchedulerKind::Dynamic
                                      ? "Dynamic"
                                      : "Static";
                         });

// ---------------------------------------------------------------------------
// Monotonicity enforcement
// ---------------------------------------------------------------------------

class NonMonotone : public Module {
 public:
  explicit NonMonotone(const std::string& name) : Module(name) {
    add_out("out", 0, 1);
  }
  void cycle_start(Cycle) override {
    out("out").send(Value(std::int64_t{1}));
    out("out").send(Value(std::int64_t{2}));  // conflicting re-drive
  }
};

TEST(KernelContract, ConflictingDriveThrows) {
  Netlist nl;
  auto& bad = nl.make<NonMonotone>("bad");
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(bad.out("out"), sink.in("in"));
  nl.finalize();
  Simulator sim(nl);
  EXPECT_THROW(sim.step(), liberty::SimulationError);
}

TEST(KernelContract, IdempotentRedriveIsAllowed) {
  class Idempotent : public Module {
   public:
    explicit Idempotent(const std::string& name) : Module(name) {
      add_out("out", 0, 1);
    }
    void cycle_start(Cycle) override {
      out("out").send(Value(std::int64_t{7}));
    }
    void react() override { out("out").send(Value(std::int64_t{7})); }
  };
  Netlist nl;
  auto& m = nl.make<Idempotent>("m");
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(m.out("out"), sink.in("in"));
  nl.finalize();
  Simulator sim(nl);
  EXPECT_NO_THROW(sim.run(5));
  EXPECT_EQ(sink.consumed(), 5u);
}

// ---------------------------------------------------------------------------
// Structural error detection at elaboration
// ---------------------------------------------------------------------------

TEST(KernelStructure, DuplicateInstanceNameRejected) {
  Netlist nl;
  nl.make<Sink>("x", Params());
  EXPECT_THROW(nl.make<Sink>("x", Params()), liberty::ElaborationError);
}

TEST(KernelStructure, InputToInputConnectionRejected) {
  Netlist nl;
  auto& a = nl.make<Sink>("a", Params());
  auto& b = nl.make<Sink>("b", Params());
  EXPECT_THROW(nl.connect(a.in("in"), b.in("in")),
               liberty::ElaborationError);
}

TEST(KernelStructure, ArityViolationRejectedAtFinalize) {
  Netlist nl;
  // Tee requires at least one input connection (min_conns == 1).
  nl.make<liberty::pcl::Tee>("t", Params());
  EXPECT_THROW(nl.finalize(), liberty::ElaborationError);
}

TEST(KernelStructure, DoubleEndpointBindRejected) {
  Netlist nl;
  auto& s1 = nl.make<Source>("s1", params({{"kind", "token"}}));
  auto& s2 = nl.make<Source>("s2", params({{"kind", "token"}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect_at(s1.out("out"), 0, sink.in("in"), 0);
  EXPECT_THROW(nl.connect_at(s2.out("out"), 0, sink.in("in"), 0),
               liberty::ElaborationError);
}

// Front ends parse --scheduler through one function; names no scheduler
// answers to (including the retired "par"/"parallel") are rejected.
TEST(KernelStructure, SchedulerKindParsing) {
  using liberty::core::scheduler_kind_from_name;
  using liberty::core::scheduler_kind_name;
  EXPECT_EQ(scheduler_kind_from_name("dyn"), SchedulerKind::Dynamic);
  EXPECT_EQ(scheduler_kind_from_name("dynamic"), SchedulerKind::Dynamic);
  EXPECT_EQ(scheduler_kind_from_name("static"), SchedulerKind::Static);
  EXPECT_EQ(scheduler_kind_from_name("comp"), SchedulerKind::Compiled);
  EXPECT_EQ(scheduler_kind_from_name("compiled"), SchedulerKind::Compiled);
  EXPECT_EQ(scheduler_kind_from_name("native"), SchedulerKind::Native);
  for (const SchedulerKind kind : liberty::core::kSchedulerKinds) {
    EXPECT_EQ(scheduler_kind_from_name(scheduler_kind_name(kind)), kind);
  }
  for (const char* bad : {"par", "parallel", "greedy"}) {
    EXPECT_THROW((void)scheduler_kind_from_name(bad),
                 liberty::ElaborationError)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// Scheduler equivalence on a less trivial mesh of primitives
// ---------------------------------------------------------------------------

struct RunResult {
  std::vector<std::int64_t> sink_a;
  std::vector<std::int64_t> sink_b;
  std::uint64_t transfers = 0;
};

RunResult run_diamond(SchedulerKind kind, std::uint64_t seed) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", liberty::test::params({{"kind", "random"},
                                    {"count", 200},
                                    {"period", 1},
                                    {"seed", Value(static_cast<std::int64_t>(
                                                 seed))}}));
  auto& demux =
      nl.make<liberty::pcl::Demux>("demux", Params());
  auto& qa = nl.make<Queue>("qa", liberty::test::params({{"depth", 3}}));
  auto& qb = nl.make<Queue>("qb", liberty::test::params({{"depth", 5}}));
  auto& arb = nl.make<liberty::pcl::Arbiter>("arb", Params());
  auto& qm = nl.make<Queue>("qm", liberty::test::params({{"depth", 2}}));
  auto& sink = nl.make<Sink>("sink", Params());
  auto& sa = nl.make<Sink>("sa", Params());

  demux.set_selector(
      [](const Value& v) { return v.as_int() % 2 == 0 ? 0u : 1u; });

  nl.connect(src.out("out"), demux.in("in"));
  nl.connect_at(demux.out("out"), 0, qa.in("in"), 0);
  nl.connect_at(demux.out("out"), 1, qb.in("in"), 0);
  nl.connect(qa.out("out"), arb.in("in"));
  nl.connect(qb.out("out"), arb.in("in"));
  nl.connect(arb.out("out"), qm.in("in"));
  nl.connect(qm.out("out"), sink.in("in"));
  nl.finalize();

  RunResult res;
  sink.set_consume_hook(
      [&res](const Value& v, Cycle) { res.sink_a.push_back(v.as_int()); });
  sa.set_consume_hook(
      [&res](const Value& v, Cycle) { res.sink_b.push_back(v.as_int()); });

  Simulator sim(nl, kind);
  sim.run(600);
  for (const auto& c : nl.connections()) res.transfers += c->transfer_count();
  return res;
}

class SchedulerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerEquivalence, DiamondNetworkBitIdentical) {
  const RunResult dyn = run_diamond(SchedulerKind::Dynamic, GetParam());
  const RunResult sta = run_diamond(SchedulerKind::Static, GetParam());
  EXPECT_EQ(dyn.sink_a, sta.sink_a);
  EXPECT_EQ(dyn.sink_b, sta.sink_b);
  EXPECT_EQ(dyn.transfers, sta.transfers);
  EXPECT_EQ(dyn.sink_a.size(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

// ---------------------------------------------------------------------------
// Transfer accounting / observers
// ---------------------------------------------------------------------------

TEST(KernelObservers, TransferObserverSeesEveryTransfer) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 7}, {"period", 2}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), sink.in("in"));
  nl.finalize();

  Simulator sim(nl);
  std::uint64_t observed = 0;
  sim.observe_transfers([&observed](const Connection&, Cycle) { ++observed; });
  sim.run(40);
  EXPECT_EQ(observed, 7u);
}

TEST(KernelObservers, DotExportContainsAllInstances) {
  Netlist nl;
  nl.make<Source>("alpha", params({{"kind", "token"}}));
  nl.make<Sink>("beta", Params());
  nl.connect(nl.get("alpha").out("out"), nl.get("beta").in("in"));
  nl.finalize();
  std::ostringstream dot;
  nl.write_dot(dot);
  const std::string s = dot.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("->"), std::string::npos);
}

}  // namespace

// ---------------------------------------------------------------------------
// VCD tracing (visualizer integration)
// ---------------------------------------------------------------------------

#include "liberty/core/vcd.hpp"

namespace {

TEST(KernelObservers, VcdTraceContainsHeaderAndActivity) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", liberty::test::params(
                 {{"kind", "counter"}, {"count", 5}, {"period", 3}}));
  auto& q = nl.make<Queue>("q", liberty::test::params({{"depth", 2}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), q.in("in"));
  nl.connect(q.out("out"), sink.in("in"));
  nl.finalize();

  std::ostringstream vcd;
  liberty::core::VcdTracer tracer(nl, vcd);
  Simulator sim(nl);
  tracer.attach(sim);
  sim.run(30);
  tracer.finish();

  const std::string s = vcd.str();
  EXPECT_NE(s.find("$timescale"), std::string::npos);
  EXPECT_NE(s.find("$var wire 1"), std::string::npos);
  EXPECT_NE(s.find("src_out_0___to__q_in_0_"), std::string::npos);
  // Activity: at least one rising edge and one timestamp.
  EXPECT_NE(s.find("\n1!"), std::string::npos);
  EXPECT_NE(s.find("\n#"), std::string::npos);
  // Wires fall after the run.
  EXPECT_NE(s.rfind("0!"), std::string::npos);
}

}  // namespace
