// Compiled backend (liberty::gen): lowering, disassembly, execution
// equivalence against the dynamic scheduler, and snapshot/restore under the
// threaded-code interpreter.  The heavier cross-scheduler guarantees live in
// the differential oracle (test_fuzz*, test_opt); these are the direct unit
// tests of the bytecode itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/core/state.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/opt/optimizer.hpp"
#include "test_util.hpp"

namespace {

using liberty::Value;
using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::Netlist;
using liberty::core::Params;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::gen::CompiledScheduler;
using liberty::gen::Instr;
using liberty::gen::Op;
using liberty::pcl::Delay;
using liberty::pcl::Probe;
using liberty::pcl::Queue;
using liberty::pcl::Sink;
using liberty::pcl::Source;
using liberty::test::params;

void build_pipeline(Netlist& nl) {
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 50}, {"period", 1}}));
  auto& q = nl.make<Queue>("q", params({{"depth", 4}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), q.in("in"));
  nl.connect(q.out("out"), sink.in("in"));
  nl.finalize();
}

std::size_t count_ops(const std::vector<Instr>& tape, Op op) {
  std::size_t n = 0;
  for (const Instr& in : tape) n += in.op == op ? 1 : 0;
  return n;
}

TEST(GenLowering, PipelineDevirtualizesEveryStockModule) {
  Netlist nl;
  build_pipeline(nl);
  CompiledScheduler sched(nl);
  const auto& prog = sched.program();

  // Every tape is Halt-terminated.
  ASSERT_FALSE(prog.start.empty());
  ASSERT_FALSE(prog.resolve.empty());
  ASSERT_FALSE(prog.commit.empty());
  EXPECT_EQ(prog.start.back().op, Op::Halt);
  EXPECT_EQ(prog.resolve.back().op, Op::Halt);
  EXPECT_EQ(prog.commit.back().op, Op::Halt);

  // All three modules are stock kinds: no CALL_VIRTUAL fallbacks.
  EXPECT_EQ(prog.virtual_ops, 0u);
  EXPECT_GT(prog.devirt_ops, 0u);

  // Start phase: Source and Queue override cycle_start, Sink does not —
  // two devirtualized start instructions, nothing virtual.
  EXPECT_EQ(count_ops(prog.start, Op::StartSource), 1u);
  EXPECT_EQ(count_ops(prog.start, Op::StartQueue), 1u);
  EXPECT_EQ(count_ops(prog.start, Op::StartVirtual), 0u);
  EXPECT_EQ(prog.start.size(), 3u);  // 2 starts + Halt

  // Commit phase: all three override end_of_cycle.
  EXPECT_EQ(count_ops(prog.commit, Op::EndSource), 1u);
  EXPECT_EQ(count_ops(prog.commit, Op::EndQueue), 1u);
  EXPECT_EQ(count_ops(prog.commit, Op::EndSink), 1u);
  EXPECT_EQ(prog.commit.size(), 4u);

  // Resolve phase: src->q forward has a non-reacting driver (Source has no
  // react) so it lowers to the default resolution; q's backward react is
  // devirtualized; the sink ack is an AutoAck.
  EXPECT_GE(count_ops(prog.resolve, Op::DefFwd), 1u);
  EXPECT_EQ(count_ops(prog.resolve, Op::BwdQueue), 1u);
  EXPECT_EQ(count_ops(prog.resolve, Op::AutoAck), 1u);
  EXPECT_EQ(count_ops(prog.resolve, Op::FwdVirtual), 0u);
  EXPECT_EQ(count_ops(prog.resolve, Op::BwdVirtual), 0u);
}

TEST(GenLowering, StatefulStockKindsDevirtualizeAtO2) {
  // src -> delay -> probe -> sink at -O2: no plan fact routes a stock kind
  // through a generic opcode, so every hook of all four modules lowers to
  // its devirtualized form.
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 20}, {"period", 1}}));
  auto& d = nl.make<Delay>("d", params({{"latency", 2}}));
  auto& p = nl.make<Probe>("p", Params());
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), d.in("in"));
  nl.connect(d.out("out"), p.in("in"));
  nl.connect(p.out("out"), sink.in("in"));
  nl.finalize();
  liberty::opt::optimize(nl, liberty::opt::OptOptions::for_level(2));

  CompiledScheduler sched(nl);
  const auto& prog = sched.program();
  EXPECT_EQ(prog.virtual_ops, 0u);
  EXPECT_EQ(count_ops(prog.start, Op::StartDelay), 1u);
  EXPECT_EQ(count_ops(prog.start, Op::StartVirtual), 0u);
  EXPECT_EQ(count_ops(prog.commit, Op::EndDelay), 1u);
  EXPECT_EQ(count_ops(prog.commit, Op::EndProbe), 1u);
  EXPECT_EQ(count_ops(prog.commit, Op::EndSink), 1u);
  EXPECT_EQ(count_ops(prog.commit, Op::EndVirtual), 0u);
}

TEST(GenLowering, SubclassFallsBackToVirtualOpcodes) {
  // Exact-typeid matching: a user subclass of a stock kind must not be
  // devirtualized (its overrides would be skipped).
  class TracedQueue final : public Queue {
   public:
    using Queue::Queue;
  };
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "counter"}, {"count", 10}, {"period", 1}}));
  auto& q = nl.make<TracedQueue>("tq", params({{"depth", 2}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), q.in("in"));
  nl.connect(q.out("out"), sink.in("in"));
  nl.finalize();

  CompiledScheduler sched(nl);
  const auto& prog = sched.program();
  EXPECT_GT(prog.virtual_ops, 0u);
  EXPECT_EQ(count_ops(prog.start, Op::StartQueue), 0u);
  EXPECT_EQ(count_ops(prog.start, Op::StartVirtual), 1u);
  EXPECT_EQ(count_ops(prog.resolve, Op::BwdQueue), 0u);
  EXPECT_EQ(count_ops(prog.resolve, Op::BwdVirtual), 1u);
  EXPECT_EQ(count_ops(prog.commit, Op::EndVirtual), 1u);

  // And the fallback is behaviourally identical: the pipeline still runs.
  Simulator sim(nl, SchedulerKind::Dynamic);
  sim.run(40);
  EXPECT_EQ(sink.consumed(), 10u);
}

TEST(GenLowering, DisassemblyNamesModulesAndTapes) {
  Netlist nl;
  build_pipeline(nl);
  CompiledScheduler sched(nl);
  const std::string dis = sched.disassemble();

  EXPECT_NE(dis.find("== start ("), std::string::npos);
  EXPECT_NE(dis.find("== resolve ("), std::string::npos);
  EXPECT_NE(dis.find("== commit ("), std::string::npos);
  EXPECT_NE(dis.find("StartSource"), std::string::npos);
  EXPECT_NE(dis.find("EndSink"), std::string::npos);
  EXPECT_NE(dis.find("AutoAck"), std::string::npos);
  EXPECT_NE(dis.find("Halt"), std::string::npos);
  // Symbolic operands: instance names appear in the listing.
  EXPECT_NE(dis.find("src"), std::string::npos);
  EXPECT_NE(dis.find("sink"), std::string::npos);
}

TEST(GenLowering, CountersReportLoweringStatistics) {
  Netlist nl;
  build_pipeline(nl);
  CompiledScheduler sched(nl);

  std::uint64_t devirt = ~0ull, virt = ~0ull, resolve_ops = 0;
  sched.visit_counters([&](std::string_view name, std::uint64_t value) {
    if (name == "gen.devirtualized_ops") devirt = value;
    if (name == "gen.virtual_fallback_ops") virt = value;
    if (name == "gen.resolve_ops") resolve_ops = value;
  });
  EXPECT_EQ(devirt, sched.program().devirt_ops);
  EXPECT_EQ(virt, 0u);
  EXPECT_EQ(resolve_ops, sched.program().resolve.size() - 1);
}

TEST(GenExecution, MatchesDynamicSchedulerBitForBit) {
  liberty::gen::ensure_registered();

  auto run_one = [](SchedulerKind kind, std::vector<std::string>& transfers,
                    std::uint64_t& consumed) {
    Netlist nl;
    auto& src = nl.make<Source>(
        "src", params({{"kind", "random"}, {"rate", 0.7}, {"seed", 7},
                       {"period", 0}, {"stamp", true}}));
    auto& q = nl.make<Queue>("q", params({{"depth", 3}}));
    auto& sink = nl.make<Sink>("sink", Params());
    nl.connect(src.out("out"), q.in("in"));
    nl.connect(q.out("out"), sink.in("in"));
    nl.finalize();

    Simulator sim(nl, kind);
    sim.observe_transfers([&transfers](const Connection& c, Cycle cycle) {
      transfers.push_back(std::to_string(cycle) + ":" +
                          std::to_string(c.id()) + "=" + c.data().to_string());
    });
    sim.run(300);
    consumed = sink.consumed();
    return sim.snapshot().digest();
  };

  std::vector<std::string> dyn_t, comp_t;
  std::uint64_t dyn_c = 0, comp_c = 0;
  const auto dyn_digest = run_one(SchedulerKind::Dynamic, dyn_t, dyn_c);
  const auto comp_digest = run_one(SchedulerKind::Compiled, comp_t, comp_c);

  EXPECT_EQ(dyn_digest, comp_digest);
  EXPECT_EQ(dyn_t, comp_t);
  EXPECT_EQ(dyn_c, comp_c);
  EXPECT_GT(comp_c, 0u);
}

TEST(GenExecution, SimulatorConstructsCompiledSchedulerViaFactory) {
  liberty::gen::ensure_registered();
  Netlist nl;
  build_pipeline(nl);
  Simulator sim(nl, SchedulerKind::Compiled);
  EXPECT_EQ(sim.scheduler().kind_name(), "compiled");
  sim.run(100);
  EXPECT_EQ(sim.scheduler().cycles_run(), 100u);
}

TEST(GenExecution, SnapshotRestoreReplaysIdentically) {
  liberty::gen::ensure_registered();
  Netlist nl;
  auto& src = nl.make<Source>(
      "src", params({{"kind", "random"}, {"rate", 0.5}, {"seed", 21},
                     {"period", 0}}));
  auto& q = nl.make<Queue>("q", params({{"depth", 2}}));
  auto& sink = nl.make<Sink>("sink", Params());
  nl.connect(src.out("out"), q.in("in"));
  nl.connect(q.out("out"), sink.in("in"));
  nl.finalize();

  Simulator sim(nl, SchedulerKind::Compiled);
  sim.run(50);
  const auto snap = sim.snapshot();

  sim.run(50);
  const auto first_digest = sim.snapshot().digest();

  sim.restore(snap);
  EXPECT_EQ(sim.snapshot().digest(), snap.digest());
  sim.run(50);
  EXPECT_EQ(sim.snapshot().digest(), first_digest);
}

}  // namespace
