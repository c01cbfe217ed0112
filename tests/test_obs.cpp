// Observability subsystem: the trace/metrics exporters produce valid,
// schema-conformant JSON; the kernel profiler's books balance against the
// scheduler's own counters; and — the load-bearing invariant — probes and
// transfer observers are pure observers: every scheduler reports the same
// transfer stream, with or without profiling attached.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "liberty/ccl/ccl.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/obs/json.hpp"
#include "liberty/obs/metrics.hpp"
#include "liberty/obs/profiler.hpp"
#include "liberty/obs/trace.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/testing/fuzzer.hpp"
#include "liberty/testing/netspec.hpp"
#include "liberty/testing/oracle.hpp"
#include "test_util.hpp"

namespace {

using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::Netlist;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::obs::ChromeTraceWriter;
using liberty::obs::CycleProfiler;
using liberty::obs::JsonValue;
using liberty::obs::MetricsRegistry;
using liberty::obs::RunMeta;
using liberty::obs::json_parse;
using liberty::testing::FuzzConfig;
using liberty::testing::NetSpec;
using liberty::testing::generate_netlist;

/// Generated netlists may weave in CCL flit traffic.
liberty::core::ModuleRegistry& fuzz_registry() {
  static liberty::core::ModuleRegistry r = [] {
    liberty::core::ModuleRegistry reg;
    liberty::pcl::register_pcl(reg);
    liberty::ccl::register_ccl(reg);
    return reg;
  }();
  return r;
}

/// src -> queue -> sink pipeline with steady traffic.
void build_pipeline(Netlist& nl) {
  auto& src = nl.make<liberty::pcl::Source>(
      "src", liberty::test::params({{"kind", liberty::Value(std::string(
                                                 "counter"))},
                                    {"period", liberty::Value(
                                                   std::int64_t{1})}}));
  auto& q = nl.make<liberty::pcl::Queue>(
      "q", liberty::test::params({{"depth", liberty::Value(std::int64_t{4})}}));
  auto& snk = nl.make<liberty::pcl::Sink>("snk", liberty::core::Params());
  nl.connect(src.out("out"), q.in("in"));
  nl.connect(q.out("out"), snk.in("in"));
  nl.finalize();
}

// --- JSON helpers ----------------------------------------------------------

TEST(ObsJson, WriterParserRoundTrip) {
  std::ostringstream oss;
  {
    liberty::obs::JsonWriter w(oss);
    w.begin_object();
    w.field("name", "a \"quoted\"\nvalue");
    w.field("count", std::uint64_t{42});
    w.field("ratio", 0.25);
    w.field("on", true);
    w.begin_array("items");
    w.element_raw("{\"x\":1}");
    w.element_raw("2");
    w.end_array();
    w.end_object();
  }
  const JsonValue doc = json_parse(oss.str());
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.get("name"), nullptr);
  EXPECT_EQ(doc.get("name")->string, "a \"quoted\"\nvalue");
  EXPECT_DOUBLE_EQ(doc.get("count")->number, 42.0);
  EXPECT_DOUBLE_EQ(doc.get("ratio")->number, 0.25);
  EXPECT_TRUE(doc.get("on")->boolean);
  ASSERT_TRUE(doc.get("items")->is_array());
  ASSERT_EQ(doc.get("items")->array.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.get("items")->array[0].get("x")->number, 1.0);
}

TEST(ObsJson, ParserRejectsGarbage) {
  EXPECT_THROW(json_parse("{\"a\": }"), liberty::Error);
  EXPECT_THROW(json_parse("{} trailing"), liberty::Error);
  EXPECT_THROW(json_parse("{\"a\": 1"), liberty::Error);
}

// --- Chrome trace ----------------------------------------------------------

TEST(ObsTrace, StructurallyValidChromeTrace) {
  Netlist nl;
  build_pipeline(nl);
  Simulator sim(nl, SchedulerKind::Static);

  std::ostringstream trace_out;
  CycleProfiler prof;
  ChromeTraceWriter trace(trace_out);
  trace.attach_transfers(sim);
  prof.set_sink(&trace);
  sim.set_probe(&prof);

  constexpr Cycle kCycles = 50;
  sim.run(kCycles);
  trace.finish();

  std::uint64_t transfers = 0;
  for (const auto& c : nl.connections()) transfers += c->transfer_count();
  ASSERT_GT(transfers, 0u);

  const JsonValue doc = json_parse(trace_out.str());
  ASSERT_TRUE(doc.is_object());
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  std::map<std::string, std::size_t> by_ph;
  std::map<std::string, std::size_t> phase_slices;
  for (const JsonValue& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    const JsonValue* ph = ev.get("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ++by_ph[ph->string];
    ASSERT_NE(ev.get("pid"), nullptr);
    if (ph->string == "X") {
      // Complete events carry numeric ts and dur.
      ASSERT_NE(ev.get("ts"), nullptr);
      ASSERT_TRUE(ev.get("ts")->is_number());
      ASSERT_NE(ev.get("dur"), nullptr);
      ASSERT_TRUE(ev.get("dur")->is_number());
      EXPECT_GE(ev.get("dur")->number, 0.0);
      if (const JsonValue* cat = ev.get("cat");
          cat != nullptr && cat->string == "phase") {
        ++phase_slices[ev.get("name")->string];
      }
    }
  }
  // One slice per phase per cycle.
  for (const char* phase : {"cycle_start", "resolve", "update", "commit"}) {
    EXPECT_EQ(phase_slices[phase], kCycles) << phase;
  }
  // One flow-event pair per transfer.
  EXPECT_EQ(by_ph["s"], transfers);
  EXPECT_EQ(by_ph["f"], transfers);
  EXPECT_GT(by_ph["M"], 0u);  // process/thread metadata present
}

// --- Metrics ---------------------------------------------------------------

TEST(ObsMetrics, JsonSchemaRoundTrip) {
  Netlist nl;
  build_pipeline(nl);
  Simulator sim(nl, SchedulerKind::Dynamic);
  CycleProfiler prof;
  sim.set_probe(&prof);
  constexpr Cycle kCycles = 40;
  sim.run(kCycles);

  MetricsRegistry reg;
  reg.collect_modules(nl);
  reg.collect_scheduler(sim.scheduler());
  reg.collect_profile(prof, &nl);
  RunMeta meta;
  meta.tool = "test_obs";
  meta.spec = "pipeline";
  meta.scheduler = "dynamic";
  meta.cycles = kCycles;
  meta.git_rev = "test";

  std::ostringstream oss;
  reg.write_json(oss, meta);
  const JsonValue doc = json_parse(oss.str());
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.get("schema"), nullptr);
  EXPECT_EQ(doc.get("schema")->string, liberty::obs::kMetricsSchemaName);
  EXPECT_DOUBLE_EQ(doc.get("schema_version")->number,
                   liberty::obs::kMetricsSchemaVersion);
  const JsonValue* m = doc.get("meta");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->get("tool")->string, "test_obs");
  EXPECT_DOUBLE_EQ(m->get("cycles")->number, kCycles);

  const JsonValue* counters = doc.get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  const JsonValue* cycles_run = counters->get("scheduler.cycles_run");
  ASSERT_NE(cycles_run, nullptr);
  EXPECT_DOUBLE_EQ(cycles_run->number, kCycles);
  const JsonValue* prof_cycles = counters->get("profile.cycles");
  ASSERT_NE(prof_cycles, nullptr);
  EXPECT_DOUBLE_EQ(prof_cycles->number, kCycles);
  // Module stats federate under module.<instance>.
  bool has_module_metric = false;
  for (const auto& [key, value] : counters->object) {
    if (key.rfind("module.", 0) == 0) has_module_metric = true;
  }
  EXPECT_TRUE(has_module_metric);
  ASSERT_NE(doc.get("scalars"), nullptr);
  ASSERT_NE(doc.get("summaries"), nullptr);
}

TEST(ObsMetrics, CsvHasMetaAndRows) {
  MetricsRegistry reg;
  reg.add_counter("scheduler.cycles_run", 7);
  MetricsRegistry::Summary s;
  s.count = 2;
  s.mean = 1.5;
  s.has_quantiles = true;
  s.p50 = 1.0;
  s.p95 = 2.0;
  s.p99 = 2.0;
  reg.add_summary("module.q.occupancy", s);
  RunMeta meta;
  meta.tool = "test_obs";
  std::ostringstream oss;
  reg.write_csv(oss, meta);
  const std::string out = oss.str();
  EXPECT_EQ(out.rfind("section,name,field,value\n", 0), 0u) << out;
  EXPECT_NE(out.find("meta,schema,value,liberty.metrics"), std::string::npos);
  EXPECT_NE(out.find("counter,scheduler.cycles_run,value,7"),
            std::string::npos);
  EXPECT_NE(out.find("summary,module.q.occupancy,p99,2"), std::string::npos);
}

// --- Profiler accounting ---------------------------------------------------

TEST(ObsProfiler, BooksBalanceAgainstSchedulerCounters) {
  Netlist nl;
  build_pipeline(nl);
  Simulator sim(nl, SchedulerKind::Dynamic);
  CycleProfiler prof;
  sim.set_probe(&prof);
  constexpr Cycle kCycles = 30;
  sim.run(kCycles);

  EXPECT_EQ(prof.cycles(), kCycles);
  for (const auto& phase : prof.phases()) {
    EXPECT_EQ(phase.count, kCycles);
    EXPECT_GE(phase.seconds, 0.0);
  }
  // Every react() the scheduler counted was attributed to some module.
  std::uint64_t attributed = 0;
  for (const std::uint64_t r : prof.module_reacts()) attributed += r;
  EXPECT_EQ(attributed, sim.scheduler().react_calls());
}

// --- Observer identity across schedulers -----------------------------------

std::vector<std::string> record_transfers(const NetSpec& spec,
                                          SchedulerKind kind, bool profile) {
  Netlist nl;
  spec.build(nl, fuzz_registry());
  Simulator sim(nl, kind);
  CycleProfiler prof;
  if (profile) sim.set_probe(&prof);
  std::vector<std::string> events;
  sim.observe_transfers([&events](const Connection& c, Cycle cycle) {
    events.push_back("@" + std::to_string(cycle) + " conn#" +
                     std::to_string(c.id()) + " = " + c.data().to_string());
  });
  sim.run(spec.cycles);
  return events;
}

TEST(ObsIdentity, TransferObserverIdenticalAcrossSchedulers) {
  FuzzConfig cfg;
  cfg.feedback_prob = 1.0;  // always thread a feedback ring into the net
  bool saw_transfers = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const NetSpec spec = generate_netlist(seed, cfg);
    const auto ref = record_transfers(spec, SchedulerKind::Dynamic,
                                      /*profile=*/false);
    saw_transfers = saw_transfers || !ref.empty();
    // Same events in the same order — under every scheduler, and
    // indifferent to an attached profiler.
    EXPECT_EQ(record_transfers(spec, SchedulerKind::Dynamic, true), ref)
        << "seed " << seed;
    EXPECT_EQ(record_transfers(spec, SchedulerKind::Static, true), ref)
        << "seed " << seed;
  }
  EXPECT_TRUE(saw_transfers);
}

TEST(ObsIdentity, OracleSweepPassesWithProfilingEnabled) {
  liberty::testing::OracleConfig oracle;
  oracle.profile = true;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const NetSpec spec = generate_netlist(seed, FuzzConfig{});
    const auto result =
        liberty::testing::run_oracle(spec, fuzz_registry(), oracle);
    EXPECT_TRUE(result.ok) << "seed " << seed << "\n" << result.report();
  }
}

}  // namespace
