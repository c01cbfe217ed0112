// The resilience subsystem (liberty::resil): fault-plan serialization,
// deterministic injection across every scheduler and optimization level,
// watchdog detection with module/channel attribution (and zero false
// positives), and checkpoint/rollback recovery proved bit-identical to a
// fault-free run.  docs/resilience.md is the narrative companion.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "liberty/core/scheduler.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/obs/metrics.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/resil/fault_plan.hpp"
#include "liberty/resil/injector.hpp"
#include "liberty/resil/recovery.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/support/error.hpp"
#include "liberty/testing/netspec.hpp"
#include "test_util.hpp"

namespace {

using liberty::Value;
using liberty::core::Cycle;
using liberty::core::Netlist;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::resil::Diagnostic;
using liberty::resil::FaultClass;
using liberty::resil::FaultInjector;
using liberty::resil::FaultPlan;
using liberty::resil::FaultSpec;
using liberty::resil::InjectionSite;
using liberty::resil::RecoveryPolicy;
using liberty::resil::RecoveryReport;
using liberty::resil::Supervisor;
using liberty::resil::SupervisorConfig;
using liberty::resil::TraceRecorder;
using liberty::resil::Watchdog;
using liberty::test::params;
using liberty::test::registry;
using liberty::testing::NetSpec;

constexpr Cycle kCycles = 120;
constexpr Cycle kOnset = 40;

/// src (counter, period 2) -> q (depth 3) -> snk.  The period-2 source
/// makes the queue alternate offer/idle on its output, so both ack
/// polarities of a backward fault are observable; conn 0 is Managed
/// (queue input), conn 1 is ungated AutoAccept (sink input).
NetSpec matrix_spec() {
  NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{2})}})});
  spec.modules.push_back(
      {"pcl.queue", "q", params({{"depth", Value(std::int64_t{3})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({1, "out", 2, "in"});
  return spec;
}

/// One fault of `cls` at the canonical matrix target: backward faults hit
/// the AutoAccept conn 1, forward faults conn 0, handler faults module q.
FaultPlan plan_for(FaultClass cls) {
  FaultPlan plan;
  plan.seed = 0xfa;
  FaultSpec f;
  f.cls = cls;
  f.from_cycle = kOnset;
  if (cls == FaultClass::HandlerThrow) {
    f.module = "q";
  } else if (cls == FaultClass::DropAck || cls == FaultClass::SpuriousAck) {
    f.connection = 1;
  } else {
    f.connection = 0;
  }
  plan.faults.push_back(std::move(f));
  return plan;
}

struct TracedRun {
  std::vector<std::uint64_t> hashes;
  std::uint64_t state_digest = 0;
  bool aborted = false;
  Cycle aborted_at = 0;
  std::string error;
  std::vector<InjectionSite> sites;
};

/// Build a fresh netlist from `spec`, optionally optimize, optionally
/// inject, run `cycles` under `kind` recording the transfer trace.
/// Everything a determinism comparison needs in one value.
TracedRun run_traced(const NetSpec& spec, SchedulerKind kind, int opt_level,
                     const FaultPlan* plan, Cycle cycles = kCycles) {
  Netlist netlist;
  spec.build(netlist, registry());
  if (opt_level > 0) {
    liberty::opt::optimize(netlist,
                           liberty::opt::OptOptions::for_level(opt_level));
  }
  // The injector must outlive the simulator (the scheduler's destructor
  // clears the per-connection hooks).
  std::unique_ptr<FaultInjector> inj;
  if (plan != nullptr) inj = std::make_unique<FaultInjector>(*plan);
  Simulator sim(netlist, kind);
  if (inj) inj->install(sim);
  TraceRecorder rec(netlist);
  sim.set_probe(&rec);
  TracedRun out;
  try {
    sim.run(cycles);
  } catch (const liberty::Error& e) {
    out.aborted = true;
    out.aborted_at = sim.now() > 0 ? sim.now() - 1 : 0;
    out.error = e.what();
  }
  out.hashes = rec.hashes();
  out.state_digest = sim.snapshot().digest();
  if (inj) out.sites = inj->sites();
  return out;
}

void expect_same_run(const TracedRun& a, const TracedRun& b,
                     const std::string& label) {
  EXPECT_EQ(a.hashes, b.hashes) << label;
  EXPECT_EQ(a.state_digest, b.state_digest) << label;
  EXPECT_EQ(a.aborted, b.aborted) << label;
  EXPECT_EQ(a.aborted_at, b.aborted_at) << label;
  EXPECT_EQ(a.error, b.error) << label;
  ASSERT_EQ(a.sites.size(), b.sites.size()) << label;
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    EXPECT_EQ(a.sites[i].cls, b.sites[i].cls) << label;
    EXPECT_EQ(a.sites[i].connection, b.sites[i].connection) << label;
    EXPECT_EQ(a.sites[i].module, b.sites[i].module) << label;
    EXPECT_EQ(a.sites[i].first_cycle, b.sites[i].first_cycle) << label;
    EXPECT_EQ(a.sites[i].applications, b.sites[i].applications) << label;
  }
}

/// Fault-free per-connection baseline for the watchdog's divergence check,
/// recorded on a fresh twin elaboration of the same spec.
std::vector<std::vector<std::uint64_t>> record_baseline(const NetSpec& spec,
                                                        int opt_level) {
  Netlist netlist;
  spec.build(netlist, registry());
  if (opt_level > 0) {
    liberty::opt::optimize(netlist,
                           liberty::opt::OptOptions::for_level(opt_level));
  }
  Simulator sim(netlist, SchedulerKind::Static);
  Watchdog rec;
  rec.record_baseline();
  rec.attach(sim);
  sim.run(kCycles);
  return rec.take_baseline();
}

// --- FaultPlan the value ----------------------------------------------------

TEST(FaultPlan, ClassNamesRoundTrip) {
  for (std::size_t i = 0; i < liberty::resil::kFaultClassCount; ++i) {
    const auto cls = static_cast<FaultClass>(i);
    EXPECT_EQ(liberty::resil::fault_class_from_name(
                  liberty::resil::fault_class_name(cls)),
              cls);
  }
  EXPECT_THROW(liberty::resil::fault_class_from_name("gamma_ray"),
               liberty::Error);
}

TEST(FaultPlan, JsonRoundTripEveryClass) {
  FaultPlan plan;
  plan.seed = 0x1234;
  for (std::size_t i = 0; i < liberty::resil::kFaultClassCount; ++i) {
    FaultSpec f;
    f.cls = static_cast<FaultClass>(i);
    if (f.cls == FaultClass::HandlerThrow) {
      f.module = "m" + std::to_string(i);
    } else if (!liberty::resil::is_env_fault(f.cls)) {
      // Environment faults target the checkpoint path, not a connection.
      f.connection = static_cast<liberty::core::ConnId>(i);
    }
    f.from_cycle = 10 * i;
    if (i % 2 == 0) f.scheduler = "static";
    plan.faults.push_back(std::move(f));
  }
  EXPECT_EQ(FaultPlan::from_json(plan.to_json()), plan);
}

TEST(FaultPlan, FromJsonRejectsGarbage) {
  EXPECT_THROW(FaultPlan::from_json("{}"), liberty::Error);
  EXPECT_THROW(FaultPlan::from_json("{\"schema\":\"other\",\"faults\":[]}"),
               liberty::Error);
}

// A spec restricted to a name no scheduler reports would silently inject
// nothing, so the plan parser and the injector both refuse it.
TEST(FaultPlan, SchedulerRestrictionMustNameAKind) {
  const auto plan_json = [](const std::string& sched) {
    return "{\"schema\":\"liberty.faultplan\",\"version\":1,\"seed\":1,"
           "\"faults\":[{\"class\":\"drop_ack\",\"connection\":0,"
           "\"scheduler\":\"" +
           sched + "\"}]}";
  };
  for (const char* ok : {"dynamic", "static", "compiled", "native"}) {
    EXPECT_EQ(FaultPlan::from_json(plan_json(ok)).faults[0].scheduler, ok);
  }
  for (const char* bad : {"parallel", "statc", "dyn", "Static"}) {
    try {
      (void)FaultPlan::from_json(plan_json(bad));
      ADD_FAILURE() << "accepted scheduler '" << bad << "'";
    } catch (const liberty::Error& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
  Netlist netlist;
  matrix_spec().build(netlist, registry());
  Simulator sim(netlist);
  FaultPlan plan = plan_for(FaultClass::DropAck);
  plan.faults[0].scheduler = "parallel";
  FaultInjector inj(plan);
  EXPECT_THROW(inj.install(sim), liberty::Error);
}

TEST(FaultPlan, RandomIsDeterministicPerSeed) {
  Netlist netlist;
  matrix_spec().build(netlist, registry());
  const FaultPlan a = FaultPlan::random(7, netlist, kCycles, 3);
  const FaultPlan b = FaultPlan::random(7, netlist, kCycles, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.faults.size(), 3u);
  EXPECT_NE(a, FaultPlan::random(8, netlist, kCycles, 3));
}

TEST(FaultPlan, PolicyNamesRoundTrip) {
  for (const auto p : {RecoveryPolicy::Abort, RecoveryPolicy::RollbackRetry,
                       RecoveryPolicy::Quarantine}) {
    EXPECT_EQ(liberty::resil::policy_from_name(liberty::resil::policy_name(p)),
              p);
  }
  EXPECT_THROW(liberty::resil::policy_from_name("shrug"), liberty::Error);
}

TEST(FaultPlan, InstallRejectsUnknownTargets) {
  Netlist netlist;
  matrix_spec().build(netlist, registry());
  Simulator sim(netlist);
  FaultPlan bad_conn = plan_for(FaultClass::DropAck);
  bad_conn.faults[0].connection = 99;
  FaultInjector inj_a(bad_conn);
  EXPECT_THROW(inj_a.install(sim), liberty::Error);
  FaultPlan bad_mod = plan_for(FaultClass::HandlerThrow);
  bad_mod.faults[0].module = "ghost";
  FaultInjector inj_b(bad_mod);
  EXPECT_THROW(inj_b.install(sim), liberty::Error);
}

// --- Deterministic injection ------------------------------------------------

// The tentpole guarantee: the same plan produces the same fault sites and
// the same post-fault trajectory under every scheduler at every -O level.
TEST(Injection, IdenticalAcrossSchedulersAndOptLevels) {
  const NetSpec spec = matrix_spec();
  struct Cfg {
    SchedulerKind kind;
    const char* name;
  };
  const Cfg cfgs[] = {{SchedulerKind::Dynamic, "dynamic"},
                      {SchedulerKind::Static, "static"}};
  for (std::size_t i = 0; i < liberty::resil::kFaultClassCount; ++i) {
    const auto cls = static_cast<FaultClass>(i);
    // Environment faults fire on the durable-checkpoint seam, not inside
    // the kernel; test_durable.cpp proves their determinism.
    if (liberty::resil::is_env_fault(cls)) continue;
    const FaultPlan plan = plan_for(cls);
    const TracedRun ref =
        run_traced(spec, SchedulerKind::Dynamic, /*opt=*/0, &plan);
    ASSERT_FALSE(ref.sites.empty())
        << liberty::resil::fault_class_name(cls) << " never applied";
    EXPECT_EQ(ref.sites.front().first_cycle, kOnset)
        << liberty::resil::fault_class_name(cls);
    for (const Cfg& cfg : cfgs) {
      for (const int opt : {0, 2}) {
        const std::string label =
            std::string(liberty::resil::fault_class_name(cls)) + " under " +
            cfg.name + " -O" + std::to_string(opt);
        expect_same_run(ref, run_traced(spec, cfg.kind, opt, &plan), label);
      }
    }
  }
}

TEST(Injection, FaultedTraceDiffersFromFaultFree) {
  const NetSpec spec = matrix_spec();
  const TracedRun clean =
      run_traced(spec, SchedulerKind::Static, 0, nullptr);
  ASSERT_FALSE(clean.aborted);
  for (std::size_t i = 0; i < liberty::resil::kFaultClassCount; ++i) {
    const auto cls = static_cast<FaultClass>(i);
    // Environment faults never touch the data plane — the trace is the
    // fault-free one by design (test_durable.cpp covers their effect).
    if (liberty::resil::is_env_fault(cls)) continue;
    const FaultPlan plan = plan_for(cls);
    const TracedRun faulted =
        run_traced(spec, SchedulerKind::Static, 0, &plan);
    if (cls == FaultClass::SpuriousAck) {
      // A forged ack on an ungated AutoAccept connection cannot mint a
      // transfer (transfer needs enable too), so the data plane is
      // untouched — this class is detectable only through the protocol
      // invariant, which Watchdog.DetectsEveryFaultClass covers.
      EXPECT_EQ(clean.hashes, faulted.hashes);
      continue;
    }
    EXPECT_NE(clean.hashes, faulted.hashes)
        << liberty::resil::fault_class_name(cls) << " left no trace";
    // Pre-onset prefix is untouched: injection starts exactly at kOnset.
    for (Cycle c = 0; c < kOnset && c < faulted.hashes.size(); ++c) {
      ASSERT_EQ(clean.hashes[c], faulted.hashes[c])
          << liberty::resil::fault_class_name(cls) << " perturbed cycle "
          << c << " before its onset";
    }
  }
}

TEST(Injection, HandlerThrowAbortsAtOnsetCycle) {
  const FaultPlan plan = plan_for(FaultClass::HandlerThrow);
  for (const auto kind : {SchedulerKind::Dynamic, SchedulerKind::Static}) {
    const TracedRun r = run_traced(matrix_spec(), kind, 2, &plan);
    ASSERT_TRUE(r.aborted);
    EXPECT_EQ(r.aborted_at, kOnset);
    EXPECT_NE(r.error.find("module 'q'"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("cycle 40"), std::string::npos) << r.error;
    // Every pre-onset cycle completed and was recorded.
    EXPECT_EQ(r.hashes.size(), kOnset);
  }
}

TEST(Injection, SchedulerRestrictedPlanOnlyBitesThatScheduler) {
  FaultPlan plan = plan_for(FaultClass::DropAck);
  plan.faults[0].scheduler = "static";
  const TracedRun on_static =
      run_traced(matrix_spec(), SchedulerKind::Static, 0, &plan);
  const TracedRun on_dynamic =
      run_traced(matrix_spec(), SchedulerKind::Dynamic, 0, &plan);
  EXPECT_FALSE(on_static.sites.empty());
  EXPECT_TRUE(on_dynamic.sites.empty());
  EXPECT_NE(on_static.hashes, on_dynamic.hashes);
}

TEST(Injection, MaskedSiteStopsApplying) {
  FaultPlan plan = plan_for(FaultClass::CorruptData);
  FaultInjector inj(plan);
  Netlist netlist;
  matrix_spec().build(netlist, registry());
  Simulator sim(netlist);
  inj.install(sim);
  sim.run(kCycles / 2);
  ASSERT_FALSE(inj.sites().empty());
  const std::uint64_t before = inj.sites().front().applications;
  EXPECT_EQ(inj.mask_through(kCycles), 1);
  sim.run(kCycles / 2);
  EXPECT_EQ(inj.sites().front().applications, before);
}

// --- Watchdog detection -----------------------------------------------------

struct DetectionOutcome {
  bool detected = false;
  Diagnostic first;
  std::uint64_t violations = 0;
};

DetectionOutcome detect(FaultClass cls, int opt_level) {
  const NetSpec spec = matrix_spec();
  auto baseline = record_baseline(spec, opt_level);
  Netlist netlist;
  spec.build(netlist, registry());
  if (opt_level > 0) {
    liberty::opt::optimize(netlist,
                           liberty::opt::OptOptions::for_level(opt_level));
  }
  const FaultPlan plan = plan_for(cls);
  FaultInjector inj(plan);
  Simulator sim(netlist, SchedulerKind::Static);
  inj.install(sim);
  Watchdog wd;
  wd.set_baseline(std::move(baseline));
  wd.attach(sim);
  try {
    sim.run(kCycles);
  } catch (const liberty::Error& e) {
    wd.note_kernel_error(e.what(), sim.now() > 0 ? sim.now() - 1 : 0);
  }
  DetectionOutcome out;
  out.violations = wd.violation_count();
  if (!wd.diagnostics().empty()) {
    out.detected = true;
    out.first = wd.diagnostics().front();
  }
  return out;
}

// Every fault class must be detected, with the right invariant family and
// the right module/channel blamed — at both -O0 and -O2.
TEST(Watchdog, DetectsEveryFaultClassWithAttribution) {
  struct Expect {
    FaultClass cls;
    Diagnostic::Kind kind;
    const char* module;
  };
  const Expect table[] = {
      {FaultClass::CorruptData, Diagnostic::Kind::Divergence, "q"},
      {FaultClass::DropEnable, Diagnostic::Kind::Divergence, "q"},
      {FaultClass::StuckChannel, Diagnostic::Kind::Divergence, "q"},
      {FaultClass::DropAck, Diagnostic::Kind::Protocol, "snk"},
      {FaultClass::SpuriousAck, Diagnostic::Kind::Protocol, "snk"},
      {FaultClass::HandlerThrow, Diagnostic::Kind::HandlerFault, "q"},
  };
  for (const int opt : {0, 2}) {
    for (const Expect& e : table) {
      const DetectionOutcome got = detect(e.cls, opt);
      const std::string label =
          std::string(liberty::resil::fault_class_name(e.cls)) + " at -O" +
          std::to_string(opt);
      ASSERT_TRUE(got.detected) << label;
      EXPECT_EQ(got.first.kind, e.kind) << label << ": "
                                        << got.first.format();
      EXPECT_EQ(got.first.module, e.module) << label << ": "
                                            << got.first.format();
      EXPECT_GE(got.first.cycle, kOnset) << label;
      EXPECT_LE(got.first.cycle, kOnset + 2) << label;
      if (e.kind != Diagnostic::Kind::HandlerFault) {
        EXPECT_FALSE(got.first.connection.empty()) << label;
      }
    }
  }
}

// The other half of the coverage matrix: a healthy run must stay silent.
TEST(Watchdog, ZeroFalsePositivesOnFaultFreeRuns) {
  NetSpec stochastic;
  stochastic.modules.push_back(
      {"pcl.source", "src",
       params({{"kind", Value(std::string("random"))},
               {"period", Value(std::int64_t{2})},
               {"seed", Value(std::int64_t{99})}})});
  stochastic.modules.push_back(
      {"pcl.delay", "d", params({{"latency", Value(std::int64_t{2})}})});
  stochastic.modules.push_back({"pcl.sink", "snk", {}});
  stochastic.edges.push_back({0, "out", 1, "in"});
  stochastic.edges.push_back({1, "out", 2, "in"});

  for (const NetSpec& spec : {matrix_spec(), stochastic}) {
    for (const int opt : {0, 2}) {
      auto baseline = record_baseline(spec, opt);
      Netlist netlist;
      spec.build(netlist, registry());
      if (opt > 0) {
        liberty::opt::optimize(netlist,
                               liberty::opt::OptOptions::for_level(opt));
      }
      Simulator sim(netlist, SchedulerKind::Static);
      Watchdog wd;
      wd.set_baseline(std::move(baseline));
      wd.attach(sim);
      sim.run(kCycles);
      EXPECT_EQ(wd.violation_count(), 0u)
          << "-O" << opt << ": " << (wd.diagnostics().empty()
                                         ? std::string("?")
                                         : wd.diagnostics().front().format());
      EXPECT_EQ(wd.cycles_checked(), kCycles);
    }
  }
}

TEST(Watchdog, ExportsMetrics) {
  const DetectionOutcome got = detect(FaultClass::DropAck, 0);
  ASSERT_TRUE(got.detected);
  // Re-run to have a live watchdog to export from.
  const NetSpec spec = matrix_spec();
  Netlist netlist;
  spec.build(netlist, registry());
  const FaultPlan plan = plan_for(FaultClass::DropAck);
  FaultInjector inj(plan);
  Simulator sim(netlist);
  inj.install(sim);
  Watchdog wd;
  wd.attach(sim);
  sim.run(kCycles);
  liberty::obs::MetricsRegistry reg;
  wd.export_metrics(reg);
  const auto& counters = reg.counters();
  ASSERT_TRUE(counters.count("resil.watchdog.violations"));
  EXPECT_GT(counters.at("resil.watchdog.violations"), 0u);
  EXPECT_EQ(counters.at("resil.watchdog.cycles_checked"), kCycles);
  EXPECT_GT(counters.at("resil.watchdog.protocol"), 0u);
}

// --- Recovery ---------------------------------------------------------------

/// Fault-free supervised reference run on a fresh elaboration.
RecoveryReport reference_run(const NetSpec& spec, Netlist& netlist) {
  spec.build(netlist, registry());
  SupervisorConfig cfg;
  Supervisor sup(netlist, cfg);
  return sup.run(kCycles);
}

// The flagship recovery guarantee: rollback-and-retry with the fault site
// masked finishes with trace hashes and a state digest bit-identical to a
// run that never faulted.
TEST(Recovery, RollbackRetryIsBitIdenticalToFaultFree) {
  const NetSpec spec = matrix_spec();
  Netlist ref_netlist;
  const RecoveryReport ref = reference_run(spec, ref_netlist);
  ASSERT_TRUE(ref.completed) << ref.error;
  ASSERT_EQ(ref.cycles, kCycles);

  // One protocol-detectable and one divergence-detectable fault class.
  for (const FaultClass cls :
       {FaultClass::DropAck, FaultClass::CorruptData,
        FaultClass::HandlerThrow}) {
    auto baseline = record_baseline(spec, 0);
    Netlist netlist;
    spec.build(netlist, registry());
    const FaultPlan plan = plan_for(cls);
    FaultInjector inj(plan);
    Watchdog wd;
    wd.set_baseline(std::move(baseline));
    SupervisorConfig cfg;
    cfg.policy = RecoveryPolicy::RollbackRetry;
    cfg.checkpoint_every = 16;
    Supervisor sup(netlist, cfg, &inj, &wd);
    const RecoveryReport rep = sup.run(kCycles);
    const std::string label(liberty::resil::fault_class_name(cls));
    ASSERT_TRUE(rep.completed) << label << ": " << rep.error;
    EXPECT_GE(rep.rollbacks, 1) << label;
    EXPECT_EQ(rep.cycles, kCycles) << label;
    EXPECT_EQ(rep.trace_hashes, ref.trace_hashes) << label;
    EXPECT_EQ(rep.trace_digest(), ref.trace_digest()) << label;
    EXPECT_EQ(rep.state_digest, ref.state_digest) << label;
    EXPECT_FALSE(rep.events.empty()) << label;
  }
}

TEST(Recovery, AbortPolicyFailsFast) {
  Netlist netlist;
  matrix_spec().build(netlist, registry());
  const FaultPlan plan = plan_for(FaultClass::HandlerThrow);
  FaultInjector inj(plan);
  SupervisorConfig cfg;  // policy Abort by default
  Supervisor sup(netlist, cfg, &inj);
  const RecoveryReport rep = sup.run(kCycles);
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.cycles, kOnset);
  EXPECT_NE(rep.error.find("module 'q'"), std::string::npos) << rep.error;
  EXPECT_EQ(rep.rollbacks, 0);
}

TEST(Recovery, QuarantinePolicyCompletesWithModuleIsolated) {
  Netlist netlist;
  matrix_spec().build(netlist, registry());
  const FaultPlan plan = plan_for(FaultClass::HandlerThrow);
  FaultInjector inj(plan);
  SupervisorConfig cfg;
  cfg.policy = RecoveryPolicy::Quarantine;
  cfg.checkpoint_every = 16;
  Supervisor sup(netlist, cfg, &inj);
  const RecoveryReport rep = sup.run(kCycles);
  ASSERT_TRUE(rep.completed) << rep.error;
  EXPECT_EQ(rep.quarantines, 1);
  EXPECT_EQ(rep.cycles, kCycles);
  EXPECT_EQ(netlist.quarantined_count(), 1u);
}

TEST(Recovery, RecoveryBudgetIsEnforced) {
  // Two handler faults, onsets apart; max_recoveries 1 lets the first be
  // rolled back but must give up on the second.
  Netlist netlist;
  matrix_spec().build(netlist, registry());
  FaultPlan plan = plan_for(FaultClass::HandlerThrow);
  FaultSpec second = plan.faults[0];
  second.module = "src";
  second.from_cycle = kOnset + 30;
  plan.faults.push_back(std::move(second));
  FaultInjector inj(plan);
  SupervisorConfig cfg;
  cfg.policy = RecoveryPolicy::RollbackRetry;
  cfg.checkpoint_every = 16;
  cfg.max_recoveries = 1;
  Supervisor sup(netlist, cfg, &inj);
  const RecoveryReport rep = sup.run(kCycles);
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.rollbacks, 1);
  EXPECT_FALSE(rep.error.empty());
}

TEST(Recovery, IterationCapSurfacesCombinationalLoopError) {
  // A genuine combinational cycle (arbiter <-> tee, no sequential element
  // in the ring) cannot settle in one sweep, so cap 1 must die with the
  // attributed channel chain rather than spin.
  NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back({"pcl.arbiter", "arb", {}});
  spec.modules.push_back({"pcl.tee", "tee", {}});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({1, "out", 2, "in"});
  spec.edges.push_back({2, "out", 1, "in"});  // closes the loop
  spec.edges.push_back({2, "out", 3, "in"});
  Netlist netlist;
  spec.build(netlist, registry());
  SupervisorConfig cfg;
  cfg.iteration_cap = 1;
  Supervisor sup(netlist, cfg);
  const RecoveryReport rep = sup.run(kCycles);
  EXPECT_FALSE(rep.completed);
  EXPECT_NE(rep.error.find("combinational loop via"), std::string::npos)
      << rep.error;
  EXPECT_NE(rep.error.find("iteration cap"), std::string::npos) << rep.error;
  EXPECT_NE(rep.error.find("arb"), std::string::npos) << rep.error;
}

}  // namespace
