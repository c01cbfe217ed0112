// The flagship rack-scale scenario (liberty::scenario) as a differential
// test target: cross-scheduler oracle identity over the full multi-library
// netlist, byte-exact trace replay, mid-flight snapshot/restore,
// checkpoint/rollback recovery from a NIC-channel fault, and the metrics
// golden.  docs/scenarios.md is the narrative companion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "liberty/core/simulator.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/obs/metrics.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/resil/fault_plan.hpp"
#include "liberty/resil/injector.hpp"
#include "liberty/resil/recovery.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/scenario/rack.hpp"
#include "liberty/scenario/trace.hpp"
#include "liberty/scenario/trace_modules.hpp"
#include "liberty/testing/oracle.hpp"

#ifndef LIBERTY_REPO_ROOT
#error "LIBERTY_REPO_ROOT must point at the repository checkout"
#endif

namespace {

using liberty::core::Cycle;
using liberty::core::KernelSnapshot;
using liberty::core::Netlist;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::scenario::RackConfig;
using liberty::scenario::TraceSink;
using liberty::scenario::TraceSource;
using liberty::testing::Candidate;
using liberty::testing::NetSpec;

liberty::core::ModuleRegistry& rack_registry() {
  static liberty::core::ModuleRegistry r = [] {
    liberty::core::ModuleRegistry reg;
    liberty::scenario::register_rack_libraries(reg);
    liberty::gen::ensure_registered();
    return reg;
  }();
  return r;
}

/// The small rack every test here shares: 2x1 mesh, one coherent core per
/// node, no OoO rider — big enough to cross every library boundary
/// (pcl/upl/ccl/mpl/nil/scenario), small enough for a tight cycle budget.
RackConfig tiny_rack() {
  RackConfig cfg;
  cfg.mesh_cols = 2;
  cfg.mesh_rows = 1;
  cfg.cores = 1;
  cfg.with_ooo = false;
  cfg.worker_iters = 8;
  cfg.requests_per_node = 2;
  cfg.cycles = 3000;
  return cfg;
}

/// Concatenated per-sink record renderings: the byte-exact replay artifact.
std::string all_records(const Netlist& netlist, const RackConfig& cfg) {
  std::string out;
  for (std::size_t n = 0; n < cfg.nodes(); ++n) {
    const auto* sink = dynamic_cast<const TraceSink*>(
        netlist.find("n" + std::to_string(n) + ".sink"));
    if (sink != nullptr) out += sink->render_records();
  }
  return out;
}

std::uint64_t completed_count(const Netlist& netlist, const RackConfig& cfg) {
  std::uint64_t done = 0;
  for (std::size_t n = 0; n < cfg.nodes(); ++n) {
    const auto* sink = dynamic_cast<const TraceSink*>(
        netlist.find("n" + std::to_string(n) + ".sink"));
    if (sink != nullptr) done += sink->completed();
  }
  return done;
}

// --- Trace format -----------------------------------------------------------

TEST(Trace, SyntheticRoundTripsThroughText) {
  liberty::scenario::TraceConfig cfg;
  cfg.nodes = 4;
  cfg.per_node = 6;
  cfg.seed = 42;
  const auto reqs = liberty::scenario::synthetic_trace(cfg);
  EXPECT_EQ(reqs.size(), 24u);
  const auto again = liberty::scenario::parse_trace(
      liberty::scenario::render_trace(reqs));
  ASSERT_EQ(again.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(again[i].id, reqs[i].id);
    EXPECT_EQ(again[i].cycle, reqs[i].cycle);
    EXPECT_EQ(again[i].src, reqs[i].src);
    EXPECT_EQ(again[i].dst, reqs[i].dst);
    EXPECT_EQ(again[i].words, reqs[i].words);
  }
  // Same seed, same trace; different seed, different trace.
  EXPECT_EQ(liberty::scenario::render_trace(
                liberty::scenario::synthetic_trace(cfg)),
            liberty::scenario::render_trace(reqs));
  cfg.seed = 43;
  EXPECT_NE(liberty::scenario::render_trace(
                liberty::scenario::synthetic_trace(cfg)),
            liberty::scenario::render_trace(reqs));
}

TEST(Trace, ParserRejectsMalformedInput) {
  EXPECT_THROW(liberty::scenario::parse_trace("req 1 2\n"), liberty::Error);
  EXPECT_THROW(liberty::scenario::parse_trace("req 1 0 1 1\n"),
               liberty::Error);  // words < 2
  EXPECT_THROW(liberty::scenario::parse_trace("nonsense\n"), liberty::Error);
  EXPECT_TRUE(liberty::scenario::parse_trace("# only a comment\n").empty());
}

// --- The oracle identity: tentpole acceptance criterion ---------------------

// The rack netlist — every component library at once — must be bit-identical
// (transfer trace, state digests, stats) under all four schedulers at both
// -O0 and -O2, proved by the differential oracle against the dynamic -O0
// reference.
TEST(Scenario, OracleIdentityAcrossSchedulersAndOptLevels) {
  const NetSpec spec = liberty::scenario::rack_netspec(tiny_rack());
  liberty::testing::OracleConfig oracle;
  oracle.snapshot_every = 256;
  oracle.candidates = {
      Candidate{SchedulerKind::Static, 0},
      Candidate{SchedulerKind::Parallel, 2},
      Candidate{SchedulerKind::Compiled, 0},
      Candidate{SchedulerKind::Dynamic, 0, /*opt_level=*/2},
      Candidate{SchedulerKind::Static, 0, /*opt_level=*/2},
      Candidate{SchedulerKind::Parallel, 2, /*opt_level=*/2},
      Candidate{SchedulerKind::Compiled, 0, /*opt_level=*/2},
  };
  const liberty::testing::OracleResult r =
      liberty::testing::run_oracle(spec, rack_registry(), oracle);
  EXPECT_TRUE(r.ok) << r.report();
}

// --- Replay determinism -----------------------------------------------------

// Same trace + same seed => byte-identical per-request latency records, on
// fresh elaborations and across scheduler kinds.
TEST(Scenario, ReplayIsByteIdentical) {
  const RackConfig cfg = tiny_rack();
  const NetSpec spec = liberty::scenario::rack_netspec(cfg);

  auto run = [&](SchedulerKind kind, int opt_level) {
    Netlist netlist;
    spec.build(netlist, rack_registry());
    liberty::opt::optimize(netlist,
                           liberty::opt::OptOptions::for_level(opt_level));
    Simulator sim(netlist, kind, kind == SchedulerKind::Parallel ? 2 : 0);
    sim.run(cfg.cycles);
    EXPECT_GT(completed_count(netlist, cfg), 0u);
    return all_records(netlist, cfg);
  };

  const std::string reference = run(SchedulerKind::Static, 0);
  EXPECT_NE(reference.find("rec "), std::string::npos) << reference;
  EXPECT_EQ(run(SchedulerKind::Static, 0), reference) << "fresh elaboration";
  EXPECT_EQ(run(SchedulerKind::Dynamic, 0), reference) << "dynamic";
  EXPECT_EQ(run(SchedulerKind::Parallel, 0), reference) << "parallel";
  EXPECT_EQ(run(SchedulerKind::Compiled, 2), reference) << "compiled -O2";
}

// An explicit trace file (here: the rendered synthetic trace fed back in
// through RackConfig::trace) replays exactly like the generator output.
TEST(Scenario, ExplicitTraceFileMatchesSynthetic) {
  const RackConfig implicit = tiny_rack();
  RackConfig explicit_cfg = tiny_rack();
  liberty::scenario::TraceConfig tc;
  tc.nodes = implicit.nodes();
  tc.per_node = implicit.requests_per_node;
  tc.seed = implicit.seed;
  explicit_cfg.trace =
      liberty::scenario::render_trace(liberty::scenario::synthetic_trace(tc));

  auto run = [&](const RackConfig& cfg) {
    Netlist netlist;
    liberty::scenario::rack_netspec(cfg).build(netlist, rack_registry());
    Simulator sim(netlist, SchedulerKind::Static, 0);
    sim.run(cfg.cycles);
    return all_records(netlist, cfg);
  };
  EXPECT_EQ(run(implicit), run(explicit_cfg));
}

// --- Snapshot / restore mid-flight ------------------------------------------

// Snapshot the rack with requests in flight inside NIC rings, mesh channels
// and coherence controllers; restore must rewind to the exact trajectory.
TEST(Scenario, SnapshotRestoreMidFlight) {
  const RackConfig cfg = tiny_rack();
  Netlist netlist;
  liberty::scenario::rack_netspec(cfg).build(netlist, rack_registry());
  Simulator sim(netlist, SchedulerKind::Static, 0);

  sim.run(cfg.cycles / 4);  // requests are mid-flight here
  const KernelSnapshot snap = sim.snapshot();
  sim.run(cfg.cycles - cfg.cycles / 4);
  const std::uint64_t end_digest = sim.snapshot().digest();
  const std::string end_records = all_records(netlist, cfg);
  EXPECT_GT(completed_count(netlist, cfg), 0u);

  sim.restore(snap);
  EXPECT_EQ(sim.snapshot().digest(), snap.digest());
  sim.run(cfg.cycles - cfg.cycles / 4);
  EXPECT_EQ(sim.snapshot().digest(), end_digest);
  EXPECT_EQ(all_records(netlist, cfg), end_records);
}

// --- Checkpoint/rollback recovery -------------------------------------------

/// Connection id of a NIC channel at node 0: the assist's net_tx link into
/// the fabric adapter.
liberty::core::ConnId nic_channel(const Netlist& netlist) {
  for (const auto& conn : netlist.connections()) {
    if (conn->producer() != nullptr && conn->consumer() != nullptr &&
        conn->producer()->name() == "n0.nic.assist" &&
        conn->consumer()->name() == "n0.nic.adapter") {
      return conn->id();
    }
  }
  ADD_FAILURE() << "no n0.nic.assist -> n0.nic.adapter connection found";
  return 0;
}

// A dead NIC link (drop_enable on assist -> adapter) detected by the
// watchdog divergence check; the Supervisor's rollback-and-retry must finish
// bit-identical to a run that never faulted.
TEST(Scenario, NicChannelFaultRecoversViaSupervisor) {
  RackConfig cfg = tiny_rack();
  cfg.cycles = 1200;
  const NetSpec spec = liberty::scenario::rack_netspec(cfg);

  // Fault-free supervised reference on a fresh elaboration.
  Netlist ref_netlist;
  spec.build(ref_netlist, rack_registry());
  liberty::resil::SupervisorConfig sup_cfg;
  sup_cfg.checkpoint_every = 128;
  liberty::resil::RecoveryReport ref;
  {
    liberty::resil::Supervisor sup(ref_netlist, sup_cfg);
    ref = sup.run(cfg.cycles);
  }
  ASSERT_TRUE(ref.completed) << ref.error;

  // Watchdog baseline from another fault-free twin.
  std::vector<std::vector<std::uint64_t>> baseline;
  {
    Netlist twin;
    spec.build(twin, rack_registry());
    Simulator sim(twin, SchedulerKind::Static, 0);
    liberty::resil::Watchdog rec;
    rec.record_baseline();
    rec.attach(sim);
    sim.run(cfg.cycles);
    baseline = rec.take_baseline();
  }

  Netlist netlist;
  spec.build(netlist, rack_registry());
  liberty::resil::FaultPlan plan;
  plan.seed = 0xace;
  liberty::resil::FaultSpec fault;
  fault.cls = liberty::resil::FaultClass::DropEnable;
  fault.connection = nic_channel(netlist);
  fault.from_cycle = 64;  // while node 0's requests are still in flight
  plan.faults.push_back(fault);

  liberty::resil::FaultInjector injector(plan);
  liberty::resil::Watchdog wd;
  wd.set_baseline(std::move(baseline));
  sup_cfg.policy = liberty::resil::RecoveryPolicy::RollbackRetry;
  liberty::resil::Supervisor sup(netlist, sup_cfg, &injector, &wd);
  const liberty::resil::RecoveryReport rep = sup.run(cfg.cycles);

  ASSERT_TRUE(rep.completed) << rep.error;
  EXPECT_GE(rep.rollbacks, 1);
  EXPECT_EQ(rep.cycles, cfg.cycles);
  EXPECT_EQ(rep.trace_hashes, ref.trace_hashes);
  EXPECT_EQ(rep.trace_digest(), ref.trace_digest());
  EXPECT_EQ(rep.state_digest, ref.state_digest);
  EXPECT_EQ(all_records(netlist, cfg), all_records(ref_netlist, cfg));
}

// --- Fuzz family ------------------------------------------------------------

TEST(Scenario, FuzzFamilyIsDeterministicPerSeed) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    const NetSpec a = liberty::scenario::fuzz_rack_netspec(seed);
    const NetSpec b = liberty::scenario::fuzz_rack_netspec(seed);
    EXPECT_EQ(a.render(), b.render()) << "seed " << seed;
    // Every generated spec elaborates and runs.
    Netlist netlist;
    a.build(netlist, rack_registry());
    Simulator sim(netlist, SchedulerKind::Static, 0);
    EXPECT_EQ(sim.run(64), 64u);
  }
  EXPECT_NE(liberty::scenario::fuzz_rack_netspec(1).render(),
            liberty::scenario::fuzz_rack_netspec(2).render());
}

// Simulator::state_digest is the oracle's streaming stand-in for
// snapshot().digest(): it must equal it on every backend and opt level, at
// any cycle, and after a restore.
TEST(Scenario, StateDigestEqualsSnapshotDigest) {
  const NetSpec spec = liberty::scenario::fuzz_rack_netspec(3);
  for (const SchedulerKind kind :
       {SchedulerKind::Dynamic, SchedulerKind::Static,
        SchedulerKind::Compiled}) {
    for (const int level : {0, 2}) {
      const std::string where = Candidate{kind, 0, level}.describe();
      Netlist netlist;
      spec.build(netlist, rack_registry());
      if (level > 0) {
        liberty::opt::optimize(netlist,
                               liberty::opt::OptOptions::for_level(level));
      }
      Simulator sim(netlist, kind, 0);
      EXPECT_EQ(sim.state_digest(), sim.snapshot().digest()) << where;
      KernelSnapshot mid;
      for (const Cycle stop : {Cycle{17}, Cycle{200}, Cycle{333}}) {
        sim.run(stop - sim.now());
        const KernelSnapshot snap = sim.snapshot();
        EXPECT_EQ(sim.state_digest(), snap.digest()) << where << " @" << stop;
        if (stop == 200) mid = snap;
      }
      sim.restore(mid);
      EXPECT_EQ(sim.state_digest(), mid.digest()) << where << " restored";
      sim.run(50);
      EXPECT_EQ(sim.state_digest(), sim.snapshot().digest())
          << where << " after restore";
    }
  }
}

// Digesting leaves nothing behind: back-to-back state digests of two
// different netlists each equal a fresh snapshot's, and every module's
// streamed state_digest() equals digest_slots of its stored save_state
// slots.
TEST(Scenario, StateDigestScratchReuseLeavesNoState) {
  Netlist a;
  Netlist b;
  liberty::scenario::fuzz_rack_netspec(3).build(a, rack_registry());
  liberty::scenario::fuzz_rack_netspec(4).build(b, rack_registry());
  Simulator sim_a(a, SchedulerKind::Static, 0);
  Simulator sim_b(b, SchedulerKind::Static, 0);
  sim_a.run(100);
  sim_b.run(150);

  const std::uint64_t fresh_a = sim_a.snapshot().digest();
  const std::uint64_t fresh_b = sim_b.snapshot().digest();
  EXPECT_NE(fresh_a, fresh_b);
  // Back to back, in both orders.
  EXPECT_EQ(sim_a.state_digest(), fresh_a);
  EXPECT_EQ(sim_b.state_digest(), fresh_b);
  EXPECT_EQ(sim_b.state_digest(), fresh_b);
  EXPECT_EQ(sim_a.state_digest(), fresh_a);

  for (const Netlist* nl : {&a, &b}) {
    for (const auto& m : nl->modules()) {
      liberty::core::StateWriter stored;
      m->save_state(stored);
      EXPECT_EQ(m->state_digest(), liberty::core::digest_slots(stored.slots()))
          << m->name();
    }
  }
}

// --- Golden metrics ---------------------------------------------------------

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
      << "output of " << leaf << " drifted from its golden; if the change "
      << "is intentional, rerun with LIBERTY_UPDATE_GOLDEN=1 and review "
      << "the diff";
}

// The rack_sim metrics export (percentiles, throughput, power/thermal,
// module stats, scheduler counters) is a stable artifact: the exact JSON is
// checked in under tests/golden/ and refreshed with LIBERTY_UPDATE_GOLDEN.
TEST(Scenario, GoldenMetricsExport) {
  const RackConfig cfg = tiny_rack();
  Netlist netlist;
  liberty::scenario::rack_netspec(cfg).build(netlist, rack_registry());
  Simulator sim(netlist, SchedulerKind::Static, 0);
  const std::uint64_t ran = sim.run(cfg.cycles);

  std::uint64_t injected = 0;
  std::vector<double> latencies;
  for (std::size_t n = 0; n < cfg.nodes(); ++n) {
    const std::string base = "n" + std::to_string(n);
    if (const auto* src =
            dynamic_cast<const TraceSource*>(netlist.find(base + ".src"))) {
      injected += src->injected();
    }
    if (const auto* sink =
            dynamic_cast<const TraceSink*>(netlist.find(base + ".sink"))) {
      for (const auto& rec : sink->records()) {
        latencies.push_back(static_cast<double>(rec.done - rec.born));
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double q) {
    if (latencies.empty()) return 0.0;
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * latencies.size()));
    return latencies[std::min(latencies.size() - 1,
                              rank == 0 ? 0 : rank - 1)];
  };

  liberty::obs::MetricsRegistry reg;
  reg.collect_modules(netlist);
  reg.collect_scheduler(sim.scheduler());
  reg.add_counter("rack.requests_injected", injected);
  reg.add_counter("rack.requests_completed", latencies.size());
  reg.add_scalar("rack.throughput_rpkc",
                 static_cast<double>(latencies.size()) * 1000.0 /
                     static_cast<double>(ran));
  liberty::obs::MetricsRegistry::Summary lat;
  lat.count = latencies.size();
  if (!latencies.empty()) {
    double sum = 0.0;
    for (const double l : latencies) sum += l;
    lat.mean = sum / static_cast<double>(latencies.size());
    lat.min = latencies.front();
    lat.max = latencies.back();
  }
  lat.has_quantiles = true;
  lat.p50 = pct(0.50);
  lat.p95 = pct(0.95);
  lat.p99 = pct(0.99);
  reg.add_summary("rack.latency", lat);
  const liberty::scenario::RackPowerReport power =
      liberty::scenario::rack_power_report(netlist, cfg);
  reg.add_scalar("rack.router_dynamic_pj", power.router_dynamic_pj);
  reg.add_scalar("rack.router_leakage_pj", power.router_leakage_pj);
  reg.add_scalar("rack.router_total_pj", power.router_total_pj);
  reg.add_scalar("rack.peak_temperature_c", power.peak_temperature_c);

  liberty::obs::RunMeta meta;
  meta.tool = "rack_sim";
  meta.spec = cfg.tag();
  meta.scheduler = "static";
  meta.threads = 0;
  meta.seed = cfg.seed;
  meta.cycles = ran;
  meta.git_rev = "golden";  // pinned: goldens must not depend on HEAD

  std::ostringstream json;
  reg.write_json(json, meta);
  compare_or_update(json.str(), "rack_metrics.json");
}

}  // namespace
