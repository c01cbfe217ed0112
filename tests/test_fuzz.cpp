// The differential harness under test: fuzzer determinism, oracle
// agreement on healthy schedulers, fault injection caught and bisected,
// shrinking, and the oracle's concurrent coarse phase giving the same
// outcome on every call.  The 500-seed sweep lives in test_fuzz_stress.cpp
// under the `fuzz` CTest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "liberty/ccl/ccl.hpp"
#include "liberty/ccl/flit.hpp"
#include "liberty/core/fault.hpp"
#include "liberty/core/module.hpp"
#include "liberty/core/scheduler.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/core/state.hpp"
#include "liberty/pcl/payloads.hpp"
#include "liberty/resil/fault_plan.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/scenario/rack.hpp"
#include "liberty/support/error.hpp"
#include "liberty/testing/fuzzer.hpp"
#include "liberty/testing/netspec.hpp"
#include "liberty/testing/oracle.hpp"
#include "liberty/testing/shrink.hpp"
#include "liberty/upl/upl.hpp"
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

/// A fault that makes module `module` throw from `cycle` on, only when
/// simulating under `scheduler`.
FaultSpec handler_throw(const std::string& scheduler,
                        liberty::core::Cycle cycle, const std::string& module) {
  FaultSpec f;
  f.cls = FaultClass::HandlerThrow;
  f.module = module;
  f.from_cycle = cycle;
  f.scheduler = scheduler;
  return f;
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
  // Default battery: static (healthy), compiled -O0 and -O2 (both faulty).
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

// ---------------------------------------------------------------------------
// The concurrent coarse phase.  run_oracle builds every simulator on the
// calling thread and runs them at once; these tests (also the ThreadSanitizer
// job's) require each outcome to be the same on every call.  Every call gets
// a spec made fresh, never built before, so a race on what the first build
// writes would show.
// ---------------------------------------------------------------------------

/// Everything a caller can read from an oracle result, as one string.
std::string outcome(const OracleResult& r) {
  std::string out = r.ok ? "ok\n" : "failed\n";
  for (const liberty::testing::Divergence& d : r.divergences) {
    out += d.candidate.describe() + " @" +
           std::to_string(d.first_divergent_cycle) + " [";
    for (const std::string& m : d.modules) out += m + " ";
    out += "]\n" + d.detail + "\n";
  }
  return out + r.report();
}

constexpr int kRepeats = 3;

/// Run the oracle kRepeats times, each on a fresh `make()`, require equal
/// outcomes, and return the first result.
template <class MakeSpec>
OracleResult run_repeated(const MakeSpec& make,
                          const liberty::core::ModuleRegistry& reg,
                          const OracleConfig& cfg) {
  const OracleResult first = run_oracle(make(), reg, cfg);
  for (int i = 1; i < kRepeats; ++i) {
    EXPECT_EQ(outcome(run_oracle(make(), reg, cfg)), outcome(first))
        << "call " << i;
  }
  return first;
}

/// The message of the exception run_oracle throws on a fresh
/// pipeline_spec(), equal on every call.
std::string thrown_repeated(const OracleConfig& cfg) {
  std::vector<std::string> messages;
  for (int i = 0; i < kRepeats; ++i) {
    try {
      (void)run_oracle(pipeline_spec(), fuzz_registry(), cfg);
      messages.push_back("(no exception)");
    } catch (const liberty::SimulationError& e) {
      messages.push_back(e.what());
    }
  }
  for (const std::string& m : messages) EXPECT_EQ(m, messages.front());
  return messages.front();
}

TEST(OracleEnsemble, FuzzRacksAgree) {
  liberty::core::ModuleRegistry reg;
  liberty::scenario::register_rack_libraries(reg);
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const auto make = [seed] {
      NetSpec spec = liberty::scenario::fuzz_rack_netspec(seed);
      spec.cycles = 300;
      return spec;
    };
    const OracleResult r = run_repeated(make, reg, OracleConfig{});
    EXPECT_TRUE(r.ok) << "rack seed " << seed << "\n" << r.report();
    EXPECT_EQ(r.report(), "all schedulers agree");
  }
  const auto fuzzed = [] { return generate_netlist(3, FuzzConfig{}); };
  EXPECT_TRUE(run_repeated(fuzzed, fuzz_registry(), OracleConfig{}).ok);
}

TEST(OracleEnsemble, RestrictedFaultBisectsToItsCycle) {
  const FaultPlan plan = scheduler_fault("static", 50, 1);
  OracleConfig cfg;
  cfg.fault_plan = &plan;
  const OracleResult r = run_repeated(pipeline_spec, fuzz_registry(), cfg);
  ASSERT_FALSE(r.ok);
  ASSERT_EQ(r.divergences.size(), 1u) << r.report();
  const liberty::testing::Divergence& d = r.divergences.front();
  EXPECT_EQ(d.candidate.kind, SchedulerKind::Static);
  EXPECT_EQ(d.first_divergent_cycle, 50u) << d.detail;
  EXPECT_FALSE(d.modules.empty());
  EXPECT_NE(d.detail.find("cycle 50"), std::string::npos) << d.detail;
}

TEST(OracleEnsemble, BisectDisabledReportsTheWindow) {
  // Both compiled candidates fault at cycle 30, inside window [16, 32).
  const FaultPlan plan = scheduler_fault("compiled", 30, 1);
  OracleConfig cfg;
  cfg.fault_plan = &plan;
  cfg.bisect = false;
  const OracleResult r = run_repeated(pipeline_spec, fuzz_registry(), cfg);
  ASSERT_FALSE(r.ok);
  ASSERT_EQ(r.divergences.size(), 2u) << r.report();
  EXPECT_EQ(r.report(),
            "dynamic and compiled diverge in window ending at cycle 32 "
            "(bisection disabled)\n"
            "dynamic and compiled-O2 diverge in window ending at cycle 32 "
            "(bisection disabled)\n");
  for (const liberty::testing::Divergence& d : r.divergences) {
    EXPECT_EQ(d.first_divergent_cycle, 32u);
    EXPECT_TRUE(d.modules.empty());
  }
}

TEST(OracleEnsemble, ThrowingCandidateRethrowsInCandidateOrder) {
  // Only the compiled candidates throw; their error reaches the caller.
  FaultPlan compiled;
  compiled.faults.push_back(handler_throw("compiled", 40, "q"));
  OracleConfig cfg;
  cfg.fault_plan = &compiled;
  EXPECT_EQ(thrown_repeated(cfg),
            "injected handler fault: module 'q' failed at cycle 40");

  // The compiled candidates throw first in time, but static comes first in
  // candidate order, so its error is the one raised.
  FaultPlan both = compiled;
  both.faults.front().from_cycle = 20;
  both.faults.push_back(handler_throw("static", 60, "q"));
  cfg.fault_plan = &both;
  EXPECT_EQ(thrown_repeated(cfg),
            "injected handler fault: module 'q' failed at cycle 60");

  // The reference's error comes before every candidate's.
  FaultPlan reference = both;
  reference.faults.push_back(handler_throw("dynamic", 70, "q"));
  cfg.fault_plan = &reference;
  EXPECT_EQ(thrown_repeated(cfg),
            "injected handler fault: module 'q' failed at cycle 70");
}

TEST(OracleEnsemble, CandidateThatDivergesBeforeItThrowsIsADivergence) {
  // Static drops an ack from cycle 10 and throws from cycle 100: its first
  // window already disagrees, so the verdict is the divergence, as it is
  // when the candidate stops at its first disagreeing window.
  FaultPlan plan = scheduler_fault("static", 10, 1);
  plan.faults.push_back(handler_throw("static", 100, "q"));
  OracleConfig cfg;
  cfg.fault_plan = &plan;
  const OracleResult r = run_repeated(pipeline_spec, fuzz_registry(), cfg);
  ASSERT_FALSE(r.ok);
  ASSERT_EQ(r.divergences.size(), 1u) << r.report();
  EXPECT_EQ(r.divergences.front().candidate.kind, SchedulerKind::Static);
  EXPECT_EQ(r.divergences.front().first_divergent_cycle, 10u)
      << r.report();
}

/// Offers one payload every cycle into its `out` port: a MemReq write
/// (`kind` "memreq") or a Flit with an integer body (`kind` "flit").
class PayloadSource final : public liberty::core::Module {
 public:
  PayloadSource(const std::string& name, const liberty::core::Params& p)
      : Module(name),
        out_(add_out("out", 0, 1)),
        flit_(p.get_string("kind", "memreq") == "flit") {}

  void cycle_start(liberty::core::Cycle c) override {
    const auto word = static_cast<std::int64_t>(c * 3);
    if (flit_) {
      out_.send(Value::make<liberty::ccl::Flit>(c, 0, 1, c, 0, true, true,
                                                Value(word)));
    } else {
      out_.send(Value::make<liberty::pcl::MemReq>(
          liberty::pcl::MemReq::Op::Write, c % 64, word, c));
    }
  }
  void declare_deps(liberty::core::Deps& deps) const override {
    deps.state_only(out_);
  }

 private:
  liberty::core::Port& out_;
  bool flit_;
};

/// Corrupts only the data a describe() rendering leaves out: a MemReq's
/// write data, a Flit's body.
class DataOnlyCorruption final : public liberty::core::FaultHook {
 public:
  void filter_forward(const liberty::core::Connection&,
                      liberty::Tristate& enable, Value& data) override {
    if (!liberty::asserted(enable)) return;
    if (const auto req = data.try_as<liberty::pcl::MemReq>()) {
      data = Value::make<liberty::pcl::MemReq>(req->op, req->addr,
                                               req->data + 1, req->tag);
    } else if (const auto f = data.try_as<liberty::ccl::Flit>()) {
      auto g = std::make_shared<liberty::ccl::Flit>(*f);
      g->body = Value(f->body.as_int() + 1);
      data = Value(std::shared_ptr<const liberty::Payload>(std::move(g)));
    }
  }
};

/// What the oracle's coarse phase compares, for one run: the transfer
/// trace folded as run_oracle folds it, the final state digest, and (for
/// contrast) every transfer's describe() rendering.
struct RunDigests {
  std::uint64_t trace = liberty::core::kFnv1aInit;
  std::uint64_t state = 0;
  std::vector<std::string> rendered;
};

RunDigests run_digests(const NetSpec& spec,
                       const liberty::core::ModuleRegistry& reg,
                       liberty::core::FaultHook* hook) {
  liberty::core::Netlist nl;
  spec.build(nl, reg);
  liberty::core::Simulator sim(nl, SchedulerKind::Static);
  if (hook != nullptr) sim.set_fault_hook(hook);
  RunDigests out;
  sim.observe_transfers([&out](const liberty::core::Connection& c,
                               liberty::core::Cycle cycle) {
    out.trace = liberty::resil::mix_transfer(
        liberty::core::fnv1a_mix(out.trace, cycle), c);
    out.rendered.push_back(c.data().to_string());
  });
  sim.run(spec.cycles);
  out.state = sim.state_digest();
  return out;
}

// Digests fold payload fields, so corrupted data carried through a queue
// moves both the trace and the state digest the oracle compares, even
// where describe() renders every transfer unchanged.
TEST(OracleDigests, SeePayloadDataThatDescribeLeavesOut) {
  liberty::core::ModuleRegistry reg;
  liberty::pcl::register_pcl(reg);
  reg.register_template(
      "test.payload_source", "offers a MemReq or Flit every cycle",
      [](const std::string& name, const liberty::core::Params& p) {
        return std::make_unique<PayloadSource>(name, p);
      });
  DataOnlyCorruption hook;
  for (const char* kind : {"memreq", "flit"}) {
    NetSpec spec;
    spec.modules.push_back({"test.payload_source", "src",
                            params({{"kind", Value(std::string(kind))}})});
    spec.modules.push_back(
        {"pcl.queue", "q", params({{"depth", Value(std::int64_t{4})}})});
    spec.modules.push_back({"pcl.sink", "snk", {}});
    spec.edges.push_back({0, "out", 1, "in"});
    spec.edges.push_back({1, "out", 2, "in"});
    spec.cycles = 100;
    const RunDigests ref = run_digests(spec, reg, nullptr);
    const RunDigests bad = run_digests(spec, reg, &hook);
    ASSERT_FALSE(ref.rendered.empty()) << kind;
    EXPECT_EQ(bad.rendered, ref.rendered) << kind;
    EXPECT_NE(bad.trace, ref.trace) << kind;
    EXPECT_NE(bad.state, ref.state) << kind;
  }
}

/// The structural 5-stage CPU of test_integration as a NetSpec: its stages
/// share architectural state by their "core" parameter, which every
/// netlist the oracle builds must keep to itself.
NetSpec structural_cpu_spec() {
  const Value core(std::string("t_cpu"));
  NetSpec spec;
  spec.modules.push_back(
      {"upl.fetch", "f",
       params({{"core", core},
               {"predictor", Value(std::string("bimodal"))},
               {"program", Value(std::string("  li r1, 0\n"
                                             "  li r2, 1\n"
                                             "  li r3, 50\n"
                                             "loop:\n"
                                             "  add r1, r1, r2\n"
                                             "  addi r2, r2, 1\n"
                                             "  bge r3, r2, loop\n"
                                             "  out r1\n"
                                             "  halt\n"))}})});
  spec.modules.push_back({"upl.decode", "d", params({{"core", core}})});
  spec.modules.push_back({"upl.execute", "x", params({{"core", core}})});
  spec.modules.push_back({"upl.mem", "m", params({{"core", core}})});
  spec.modules.push_back({"upl.writeback", "w", params({{"core", core}})});
  spec.modules.push_back({"upl.cache", "l1",
                          params({{"sets", Value(std::int64_t{8})},
                                  {"ways", Value(std::int64_t{2})},
                                  {"line_words", Value(std::int64_t{4})}})});
  spec.modules.push_back({"upl.memctl", "mc",
                          params({{"latency", Value(std::int64_t{8})},
                                  {"line_words", Value(std::int64_t{4})}})});
  spec.edges = {{0, "out", 1, "in"},         {1, "out", 2, "in"},
                {2, "out", 3, "in"},         {3, "out", 4, "in"},
                {2, "resolve", 0, "resolve"}, {3, "dreq", 5, "cpu_req"},
                {5, "cpu_resp", 3, "dresp"},  {5, "mem_req", 6, "req"},
                {6, "resp", 5, "mem_resp"}};
  spec.cycles = 2000;
  return spec;
}

TEST(Oracle, StructuralCpuSpecAgrees) {
  liberty::core::ModuleRegistry reg;
  liberty::pcl::register_pcl(reg);
  liberty::upl::register_upl(reg);
  const OracleResult r = run_repeated(structural_cpu_spec, reg, OracleConfig{});
  EXPECT_TRUE(r.ok) << r.report();
}

}  // namespace
