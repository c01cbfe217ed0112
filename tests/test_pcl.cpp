// Primitive Component Library behaviour, on both schedulers where timing
// matters.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "liberty/core/netlist.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/support/error.hpp"
#include "test_util.hpp"

namespace {

using liberty::Value;
using liberty::core::Cycle;
using liberty::core::Netlist;
using liberty::core::Params;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using namespace liberty::pcl;
using liberty::test::params;

class PclParam : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(BothSchedulers, PclParam,
                         ::testing::Values(SchedulerKind::Dynamic,
                                           SchedulerKind::Static),
                         [](const auto& info) {
                           return info.param == SchedulerKind::Dynamic
                                      ? "Dynamic"
                                      : "Static";
                         });

// ---------------------------------------------------------------------------
// Delay
// ---------------------------------------------------------------------------

TEST_P(PclParam, DelayImposesExactLatency) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src",
      params({{"kind", "counter"}, {"count", 10}, {"period", 4},
              {"stamp", true}}));
  auto& dly = nl.make<Delay>("d", params({{"latency", 7}, {"capacity", 16}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), dly.in("in"));
  nl.connect(dly.out("out"), sink.in("in"));
  nl.finalize();

  std::vector<double> latencies;
  sink.set_consume_hook([&latencies](const Value& v, Cycle c) {
    latencies.push_back(static_cast<double>(c - v.as<Stamped>()->born));
  });
  Simulator sim(nl, GetParam());
  sim.run(100);
  ASSERT_EQ(latencies.size(), 10u);
  // Accepted the cycle it is born, delivered exactly `latency` later.
  for (const double l : latencies) EXPECT_EQ(l, 7.0);
}

TEST_P(PclParam, DelayCapacityLimitsInFlight) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 50}, {"period", 1}}));
  auto& dly = nl.make<Delay>("d", params({{"latency", 10}, {"capacity", 2}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), dly.in("in"));
  nl.connect(dly.out("out"), sink.in("in"));
  nl.finalize();
  Simulator sim(nl, GetParam());
  sim.run(30);
  // With capacity 2 and latency 10, at most 2 in flight -> at most ~6
  // delivered in 30 cycles.
  EXPECT_LE(sink.consumed(), 6u);
  EXPECT_GT(sink.consumed(), 0u);
}

// ---------------------------------------------------------------------------
// Arbiter
// ---------------------------------------------------------------------------

TEST_P(PclParam, RoundRobinArbiterIsFair) {
  Netlist nl;
  constexpr int kInputs = 4;
  std::vector<Source*> srcs;
  auto& arb = nl.make<Arbiter>("arb", params({{"policy", "round_robin"}}));
  auto& sink = nl.make<Sink>("sink", Params());
  for (int i = 0; i < kInputs; ++i) {
    auto& s = nl.make<Source>(
        "src" + std::to_string(i),
        params({{"kind", "counter"}, {"period", 1}, {"count", 100}}));
    srcs.push_back(&s);
    nl.connect(s.out("out"), arb.in("in"));
  }
  nl.connect(arb.out("out"), sink.in("in"));
  nl.finalize();

  Simulator sim(nl, GetParam());
  sim.run(400);

  // All inputs always contend; round robin must share within one grant.
  std::vector<std::uint64_t> grants;
  for (int i = 0; i < kInputs; ++i) {
    grants.push_back(
        arb.stats().counter_value("grants_in" + std::to_string(i)));
  }
  const auto [lo, hi] = std::minmax_element(grants.begin(), grants.end());
  EXPECT_LE(*hi - *lo, 1u);
  EXPECT_EQ(sink.consumed(), 400u);
}

TEST_P(PclParam, PriorityArbiterStarvesLowPriority) {
  Netlist nl;
  auto& arb = nl.make<Arbiter>("arb", params({{"policy", "priority"}}));
  auto& sink = nl.make<Sink>("sink", Params());
  auto& hi = nl.make<Source>(
      "hi", params({{"kind", "token"}, {"period", 1}, {"count", 50}}));
  auto& lo = nl.make<Source>(
      "lo", params({{"kind", "token"}, {"period", 1}, {"count", 50}}));
  nl.connect(hi.out("out"), arb.in("in"));
  nl.connect(lo.out("out"), arb.in("in"));
  nl.connect(arb.out("out"), sink.in("in"));
  nl.finalize();
  Simulator sim(nl, GetParam());
  sim.run(50);
  EXPECT_EQ(arb.stats().counter_value("grants_in0"), 50u);
  EXPECT_EQ(arb.stats().counter_value("grants_in1"), 0u);
}

// ---------------------------------------------------------------------------
// Tee
// ---------------------------------------------------------------------------

TEST_P(PclParam, TeeBroadcastsToAllOutputs) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 20}, {"period", 1}}));
  auto& tee = nl.make<Tee>("tee", Params());
  auto& s1 = nl.make<Sink>("s1", Params());
  auto& s2 = nl.make<Sink>("s2", Params());
  auto& s3 = nl.make<Sink>("s3", Params());
  nl.connect(src.out("out"), tee.in("in"));
  nl.connect(tee.out("out"), s1.in("in"));
  nl.connect(tee.out("out"), s2.in("in"));
  nl.connect(tee.out("out"), s3.in("in"));
  nl.finalize();
  Simulator sim(nl, GetParam());
  sim.run(40);
  EXPECT_EQ(s1.consumed(), 20u);
  EXPECT_EQ(s2.consumed(), 20u);
  EXPECT_EQ(s3.consumed(), 20u);
}

TEST_P(PclParam, TeeStallsWhenAnyBranchStalls) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 20}, {"period", 1}}));
  auto& tee = nl.make<Tee>("tee", Params());
  auto& s1 = nl.make<Sink>("s1", Params());
  auto& s2 = nl.make<Sink>("s2", Params());
  nl.connect(src.out("out"), tee.in("in"));
  auto& gated = nl.connect(tee.out("out"), s1.in("in"));
  nl.connect(tee.out("out"), s2.in("in"));
  nl.finalize();
  // Branch 1 refuses everything: no broadcast ever completes.  Branch 2 may
  // take the first item (it is remembered as delivered), but the wedged
  // branch then stalls the stream for everyone.
  gated.set_transfer_gate([](const Value&) { return false; });
  Simulator sim(nl, GetParam());
  sim.run(40);
  EXPECT_EQ(s1.consumed(), 0u);
  EXPECT_LE(s2.consumed(), 1u);
  EXPECT_EQ(tee.stats().counter_value("broadcasts"), 0u);
}

// ---------------------------------------------------------------------------
// Demux / Crossbar
// ---------------------------------------------------------------------------

TEST_P(PclParam, DemuxRoutesByValue) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 30}, {"period", 1}}));
  auto& dm = nl.make<Demux>("dm", Params());
  auto& s0 = nl.make<Sink>("s0", Params());
  auto& s1 = nl.make<Sink>("s1", Params());
  auto& s2 = nl.make<Sink>("s2", Params());
  dm.set_selector([](const Value& v) {
    return static_cast<std::size_t>(v.as_int() % 3);
  });
  nl.connect(src.out("out"), dm.in("in"));
  nl.connect(dm.out("out"), s0.in("in"));
  nl.connect(dm.out("out"), s1.in("in"));
  nl.connect(dm.out("out"), s2.in("in"));
  nl.finalize();
  Simulator sim(nl, GetParam());
  sim.run(60);
  EXPECT_EQ(s0.consumed(), 10u);
  EXPECT_EQ(s1.consumed(), 10u);
  EXPECT_EQ(s2.consumed(), 10u);
}

TEST_P(PclParam, CrossbarDeliversAllTrafficToCorrectOutputs) {
  Netlist nl;
  auto& xb = nl.make<Crossbar>("xb", Params());
  std::vector<Sink*> sinks;
  for (int i = 0; i < 2; ++i) {
    auto& s = nl.make<Source>(
        "src" + std::to_string(i),
        params({{"kind", "counter"}, {"count", 40}, {"period", 1}}));
    nl.connect(s.out("out"), xb.in("in"));
  }
  for (int o = 0; o < 2; ++o) {
    auto& s = nl.make<Sink>("sink" + std::to_string(o), Params());
    sinks.push_back(&s);
    nl.connect(xb.out("out"), s.in("in"));
  }
  nl.finalize();
  Simulator sim(nl, GetParam());
  sim.run(400);
  // Counter values 0..39 from both sources: evens to output 0, odds to 1.
  EXPECT_EQ(sinks[0]->consumed(), 40u);
  EXPECT_EQ(sinks[1]->consumed(), 40u);
  EXPECT_GT(xb.stats().counter_value("conflicts"), 0u);
}

// ---------------------------------------------------------------------------
// Buffer in its three §2.1 roles
// ---------------------------------------------------------------------------

TEST_P(PclParam, BufferAsPlainFifoPreservesOrder) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 25}, {"period", 1}}));
  auto& buf = nl.make<Buffer>("buf",
                              params({{"capacity", 4}, {"issue", "fifo"}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), buf.in("in"));
  nl.connect(buf.out("out"), sink.in("in"));
  nl.finalize();
  std::vector<std::int64_t> seen;
  sink.set_consume_hook(
      [&seen](const Value& v, Cycle) { seen.push_back(v.as_int()); });
  Simulator sim(nl, GetParam());
  sim.run(100);
  ASSERT_EQ(seen.size(), 25u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST_P(PclParam, BufferAsWindowIssuesOutOfOrder) {
  // "any" issue with a readiness predicate that blocks multiples of 3
  // until cycle 30: later entries overtake them.
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 12}, {"period", 1}}));
  auto& buf = nl.make<Buffer>("buf",
                              params({{"capacity", 16}, {"issue", "any"}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), buf.in("in"));
  nl.connect(buf.out("out"), sink.in("in"));
  nl.finalize();

  bool unblock = false;
  buf.set_ready_fn([&unblock](const Value& v) {
    return unblock || (v.as_int() % 3 != 0);
  });
  std::vector<std::int64_t> seen;
  sink.set_consume_hook(
      [&seen](const Value& v, Cycle) { seen.push_back(v.as_int()); });
  Simulator sim(nl, GetParam());
  for (int i = 0; i < 30; ++i) sim.step();
  unblock = true;  // operands arrive: blocked entries become ready
  sim.run(70);
  ASSERT_EQ(seen.size(), 12u);
  EXPECT_FALSE(std::is_sorted(seen.begin(), seen.end()));
  // Everything still arrives exactly once.
  std::vector<std::int64_t> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  for (std::int64_t i = 0; i < 12; ++i) EXPECT_EQ(sorted[i], i);
}

TEST_P(PclParam, BufferAsRobHoldsHeadUntilComplete) {
  // FIFO issue with a gating predicate: the head (value 0) is not "complete"
  // until cycle 20, so nothing retires before then even though later
  // entries are complete.
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 5}, {"period", 1}}));
  auto& rob = nl.make<Buffer>("rob",
                              params({{"capacity", 8}, {"issue", "fifo"}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), rob.in("in"));
  nl.connect(rob.out("out"), sink.in("in"));
  nl.finalize();

  bool complete0 = false;
  rob.set_ready_fn([&complete0](const Value& v) {
    return v.as_int() != 0 || complete0;
  });
  std::vector<Cycle> retire_cycles;
  sink.set_consume_hook([&retire_cycles](const Value&, Cycle c) {
    retire_cycles.push_back(c);
  });

  Simulator sim(nl, GetParam());
  for (int i = 0; i < 20; ++i) sim.step();
  EXPECT_TRUE(retire_cycles.empty());
  complete0 = true;
  sim.run(30);
  ASSERT_EQ(retire_cycles.size(), 5u);
  EXPECT_GE(retire_cycles.front(), 20u);
}

// ---------------------------------------------------------------------------
// MemoryArray
// ---------------------------------------------------------------------------

TEST_P(PclParam, MemoryArrayReadsBackWrites) {
  Netlist nl;
  auto& mem = nl.make<MemoryArray>(
      "mem", params({{"latency", 3}, {"mshrs", 4}}));
  auto& sink = nl.make<Sink>("sink", Params());

  // Drive requests from a bespoke module.
  class Driver : public liberty::core::Module {
   public:
    explicit Driver(const std::string& name) : Module(name) {
      add_out("req", 1, 1);
    }
    void cycle_start(Cycle c) override {
      if (c < reqs_.size()) {
        out("req").send(reqs_[c]);
      } else {
        out("req").idle();
      }
    }
    void declare_deps(liberty::core::Deps& d) const override {
      d.state_only(out("req"));
    }
    std::vector<Value> reqs_;
  };
  auto& drv = nl.make<Driver>("drv");
  drv.reqs_.push_back(Value::make<MemReq>(MemReq::Op::Write, 100, 42, 1));
  drv.reqs_.push_back(Value::make<MemReq>(MemReq::Op::Write, 200, -7, 2));
  drv.reqs_.push_back(Value::make<MemReq>(MemReq::Op::Read, 100, 0, 3));
  drv.reqs_.push_back(Value::make<MemReq>(MemReq::Op::Read, 999, 0, 4));

  nl.connect(drv.out("req"), mem.in("req"));
  nl.connect(mem.out("resp"), sink.in("in"));
  nl.finalize();

  std::map<std::uint64_t, std::int64_t> resp;
  sink.set_consume_hook([&resp](const Value& v, Cycle) {
    const auto r = v.as<MemResp>();
    resp[r->tag] = r->data;
  });
  Simulator sim(nl, GetParam());
  sim.run(30);
  ASSERT_EQ(resp.size(), 4u);
  EXPECT_EQ(resp[3], 42);
  EXPECT_EQ(resp[4], 0);  // never written -> default
  EXPECT_EQ(mem.peek(200), -7);
}

// Equal stores digest equal whatever order their cells were written in,
// and a store restored from a save digests like the one saved.
TEST(MemoryArrayState, DigestIgnoresWriteOrder) {
  MemoryArray a("a", Params());
  MemoryArray b("b", Params());
  const std::vector<std::pair<std::uint64_t, std::int64_t>> cells = {
      {7, 1}, {1ULL << 40, -3}, {0, 9}, {512, 4}, {3, 2}};
  for (const auto& [addr, data] : cells) a.poke(addr, data);
  b.poke(3, 100);  // overwritten below
  for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
    b.poke(it->first, it->second);
  }
  EXPECT_EQ(a.state_digest(), b.state_digest());

  liberty::core::StateWriter w;
  b.save_state(w);
  MemoryArray c("c", Params());
  c.poke(8, 8);  // dropped by the load
  liberty::core::StateReader r(w.slots(), "c");
  c.load_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(c.state_digest(), a.state_digest());
  EXPECT_EQ(c.peek(1ULL << 40), -3);
  EXPECT_EQ(c.peek(8), 0);

  b.poke(512, 5);
  EXPECT_NE(a.state_digest(), b.state_digest());
}

// ---------------------------------------------------------------------------
// Probe / FuncMap
// ---------------------------------------------------------------------------

TEST_P(PclParam, ProbeIsTransparentAndCounts) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 15}, {"period", 1}}));
  auto& probe = nl.make<Probe>("p", Params());
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), probe.in("in"));
  nl.connect(probe.out("out"), sink.in("in"));
  nl.finalize();
  Simulator sim(nl, GetParam());
  sim.run(30);
  EXPECT_EQ(sink.consumed(), 15u);
  EXPECT_EQ(probe.count(), 15u);
}

TEST_P(PclParam, FuncMapTransformsValues) {
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 10}, {"period", 1}}));
  auto& fm = nl.make<FuncMap>("fm", Params());
  auto& sink = nl.make<Sink>("sink", Params());
  fm.set_fn([](const Value& v) { return Value(v.as_int() * 10); });
  nl.connect(src.out("out"), fm.in("in"));
  nl.connect(fm.out("out"), sink.in("in"));
  nl.finalize();
  std::vector<std::int64_t> seen;
  sink.set_consume_hook(
      [&seen](const Value& v, Cycle) { seen.push_back(v.as_int()); });
  Simulator sim(nl, GetParam());
  sim.run(30);
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::int64_t>(i) * 10);
  }
}

// ---------------------------------------------------------------------------
// Source parameter space (property-style sweep)
// ---------------------------------------------------------------------------

class SourcePeriod : public ::testing::TestWithParam<int> {};

TEST_P(SourcePeriod, EmitsAtConfiguredPeriod) {
  const int period = GetParam();
  Netlist nl;
  auto& src = nl.make<Source>(
      "src",
      params({{"kind", "token"}, {"period", period}, {"count", 0}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), sink.in("in"));
  nl.finalize();
  Simulator sim(nl);
  const Cycle horizon = 120;
  sim.run(horizon);
  EXPECT_EQ(sink.consumed(),
            (horizon + static_cast<Cycle>(period) - 1) /
                static_cast<Cycle>(period));
  (void)src;
}

INSTANTIATE_TEST_SUITE_P(Periods, SourcePeriod,
                         ::testing::Values(1, 2, 3, 5, 8, 40));

TEST(PclErrors, BadParamsRejected) {
  Netlist nl;
  EXPECT_THROW(nl.make<Queue>("q", liberty::test::params({{"depth", 0}})),
               liberty::ElaborationError);
  EXPECT_THROW(
      nl.make<Arbiter>("a", liberty::test::params({{"policy", "bogus"}})),
      liberty::ElaborationError);
  EXPECT_THROW(
      nl.make<Source>("s", liberty::test::params({{"kind", "bogus"}})),
      liberty::ElaborationError);
  EXPECT_THROW(nl.make<Delay>("d", liberty::test::params({{"latency", 0}})),
               liberty::ElaborationError);
}

}  // namespace
