// LSS error paths: every malformed specification must die with a located,
// actionable diagnostic — never a crash, never a silently wrong netlist.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <map>
#include <string>

#include "liberty/ccl/ccl.hpp"
#include "liberty/core/lss/elaborator.hpp"
#include "liberty/core/lss/parser.hpp"
#include "liberty/core/scheduler.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/support/error.hpp"
#include "liberty/upl/upl.hpp"
#include "test_util.hpp"

#ifndef LIBERTY_REPO_ROOT
#error "LIBERTY_REPO_ROOT must point at the repository checkout"
#endif

namespace {

using liberty::test::registry;

/// Registry with the pcl, upl and ccl libraries.
liberty::core::ModuleRegistry& full_registry() {
  static liberty::core::ModuleRegistry r = [] {
    liberty::core::ModuleRegistry reg;
    liberty::pcl::register_pcl(reg);
    liberty::upl::register_upl(reg);
    liberty::ccl::register_ccl(reg);
    return reg;
  }();
  return r;
}

/// Elaborate `src` and return the diagnostic it dies with ("" = accepted).
std::string diagnostic(const std::string& src,
                       liberty::core::ModuleRegistry& reg = registry()) {
  liberty::core::Netlist netlist;
  try {
    liberty::core::lss::build_from_lss(src, "test.lss", netlist, reg);
  } catch (const liberty::Error& e) {
    return e.what();
  }
  return {};
}

void expect_diag(const std::string& src, const std::string& needle,
                 liberty::core::ModuleRegistry& reg = registry()) {
  const std::string msg = diagnostic(src, reg);
  ASSERT_FALSE(msg.empty()) << "spec was accepted:\n" << src;
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "diagnostic \"" << msg << "\" lacks \"" << needle << "\"";
}

TEST(LssErrors, UnterminatedStringLiteral) {
  expect_diag("param P = \"oops;\n", "unterminated string literal");
}

TEST(LssErrors, UnterminatedBlockComment) {
  expect_diag("instance s : pcl.sink;\n/* runs off the end",
              "unterminated block comment");
}

TEST(LssErrors, UnknownEscapeInString) {
  expect_diag("param P = \"bad\\q\";\n", "unknown escape in string literal");
}

TEST(LssErrors, UnknownModuleTemplate) {
  expect_diag("instance x : no.such.thing;\n",
              "unknown module template 'no.such.thing'");
}

TEST(LssErrors, SelfRecursiveModuleHitsDepthLimit) {
  // A module that instantiates itself must be cut off by the depth
  // limiter, not by the process stack.
  expect_diag(
      "module a {\n"
      "  instance inner : a;\n"
      "}\n"
      "instance top : a;\n",
      "depth exceeds 256");
}

// Deep nesting must be cut off by the parser's nesting budget with a
// located diagnostic, not by the process stack.
TEST(LssErrors, DeepNestingIsDiagnosedNotACrash) {
  const std::size_t deep = 100000;
  const std::string parens = "param P = " + std::string(deep, '(') + "1" +
                             std::string(deep, ')') + ";\n";
  expect_diag(parens, "nesting depth exceeds 256");
  EXPECT_NE(diagnostic(parens).find("test.lss:1:"), std::string::npos);
  expect_diag("param P = " + std::string(deep, '-') + "1;\n",
              "nesting depth exceeds 256");
  std::string blocks;
  for (std::size_t i = 0; i < deep; ++i) blocks += "if true {\n";
  expect_diag(blocks, "nesting depth exceeds 256");
  std::string chain = "if false { }";
  for (std::size_t i = 0; i < deep; ++i) chain += " else if false { }";
  expect_diag(chain + "\n", "nesting depth exceeds 256");
}

TEST(LssErrors, OrdinaryNestingStillParses) {
  const std::size_t depth = 100;
  std::string src = "param P = " + std::string(depth, '(') + "1" +
                    std::string(depth, ')') + ";\n";
  for (std::size_t i = 0; i < depth; ++i) src += "if P == 1 {\n";
  src += "param Q = -(-(P));\n";
  for (std::size_t i = 0; i < depth; ++i) src += "}\n";
  EXPECT_EQ(diagnostic(src), "");
}

// Generative loops and instances draw on one fixed elaboration budget, so a
// runaway `for` ends in a located diagnostic naming the loop instead of
// elaborating until the process is killed.
TEST(LssErrors, HugeLoopHitsElaborationBudgetFast) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string msg = diagnostic("for i in 0 .. 100000000 { }\n");
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_NE(msg.find("test.lss:1:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("for loop over 'i' exceeds the elaboration budget"),
            std::string::npos)
      << msg;
  EXPECT_LT(seconds, 1.0);
}

TEST(LssErrors, NestedLoopsHitElaborationBudget) {
  const std::string msg = diagnostic(
      "for i in 0 .. 10000 {\n"
      "  for j in 0 .. 10000 { }\n"
      "}\n");
  EXPECT_NE(msg.find("test.lss:2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("for loop over 'j' exceeds the elaboration budget"),
            std::string::npos)
      << msg;
}

// The budget is far above real specs: 1024 hierarchical lanes (the size
// of the benchmark's generated spec) and every shipped example elaborate.
TEST(LssErrors, RealSpecsFitTheElaborationBudget) {
  const std::string lanes =
      "module lane {\n"
      "  param period = 1;\n"
      "  instance src : pcl.source { kind = \"counter\"; period = period; };\n"
      "  instance q : pcl.queue { depth = 4; };\n"
      "  instance d : pcl.delay { latency = 2; };\n"
      "  instance f0 : pcl.funcmap;\n"
      "  instance f1 : pcl.funcmap;\n"
      "  instance snk : pcl.sink;\n"
      "  connect src.out -> q.in;\n"
      "  connect q.out -> d.in;\n"
      "  connect d.out -> f0.in;\n"
      "  connect f0.out -> f1.in;\n"
      "  connect f1.out -> snk.in;\n"
      "}\n"
      "for i in 0 .. 1024 {\n"
      "  instance l[i] : lane { period = 1 + i % 64; };\n"
      "}\n";
  liberty::core::Netlist netlist;
  liberty::core::lss::build_from_lss(lanes, "lanes.lss", netlist, registry());
  EXPECT_EQ(netlist.module_count(), 1024u * 6u);

  for (const char* leaf :
       {"busnet.lss", "cpu.lss", "funnel.lss", "pipeline.lss"}) {
    const std::string path =
        std::string(LIBERTY_REPO_ROOT) + "/examples/specs/" + leaf;
    liberty::core::Netlist nl;
    liberty::core::lss::Elaborator(full_registry()).elaborate(
        liberty::core::lss::parse_file(path), nl);
    EXPECT_GT(nl.module_count(), 0u) << leaf;
  }
}

/// Elaborate examples/specs/funnel.lss with `overrides`.  Returns the
/// diagnostic it dies with ("" = accepted) and sets `modules`.
std::string funnel_with(const std::map<std::string, liberty::Value>& overrides,
                        std::size_t& modules) {
  const std::string path =
      std::string(LIBERTY_REPO_ROOT) + "/examples/specs/funnel.lss";
  liberty::core::Netlist nl;
  modules = 0;
  try {
    liberty::core::lss::Elaborator(registry())
        .elaborate(liberty::core::lss::parse_file(path), nl, overrides);
  } catch (const liberty::ElaborationError& e) {
    return e.what();
  }
  modules = nl.module_count();
  return {};
}

// A parameter override takes effect only through a top-level `param` of
// that name; any other key is a diagnostic that names it and lists the
// spec's top-level params, never a silent run of the default model.
TEST(LssErrors, ParamOverrideMustNameATopLevelParam) {
  std::size_t modules = 0;
  const liberty::Value three(std::int64_t{3});
  for (const char* bad : {"NOSUCH", "", "depth", "n"}) {
    const std::string msg = funnel_with({{bad, three}}, modules);
    EXPECT_NE(msg.find("parameter override '" + std::string(bad) + "'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("top-level params: DEPTH, N"), std::string::npos)
        << msg;
  }
  // One bad key among good ones still fails.
  EXPECT_FALSE(
      funnel_with({{"N", liberty::Value(std::int64_t{8})}, {"RATE", three}},
                  modules)
          .empty());
  // A spec without params lists none.
  liberty::core::Netlist nl;
  try {
    liberty::core::lss::build_from_lss("instance q : pcl.queue;\n", "t.lss",
                                       nl, registry(), {{"N", three}});
    ADD_FAILURE() << "override accepted by a spec without params";
  } catch (const liberty::ElaborationError& e) {
    EXPECT_NE(std::string(e.what()).find("top-level params: none"),
              std::string::npos)
        << e.what();
  }

  // The overrides that do name a top-level param still apply.
  ASSERT_EQ(funnel_with({}, modules), "");
  const std::size_t default_modules = modules;
  ASSERT_EQ(funnel_with({{"N", liberty::Value(std::int64_t{8})}}, modules),
            "");
  EXPECT_GT(modules, default_modules);
}

// A negative size, latency or count must not wrap around to a huge unsigned
// value and elaborate into a silently different model.
TEST(LssErrors, NegativeSizeParameterIsRejected) {
  struct Row {
    const char* tmpl;
    const char* param;
  };
  const Row rows[] = {
      {"pcl.queue", "depth"},
      {"pcl.delay", "latency"},
      {"pcl.source", "period"},
      {"pcl.source", "count"},
      {"pcl.source", "start"},
      {"pcl.sink", "stop_after"},
      {"pcl.memory_array", "latency"},
      {"ccl.link", "latency"},
      {"ccl.bus", "occupancy"},
      {"ccl.router", "pipeline"},
      {"ccl.traffic_gen", "count"},
      {"ccl.traffic_sink", "stop_after"},
      {"ccl.wireless", "airtime"},
      {"upl.execute", "mul_latency"},
      {"upl.ooo_core", "mispredict_penalty"},
      {"upl.cache", "hit_latency"},
      {"upl.memctl", "latency"},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(std::string(r.tmpl) + "." + r.param);
    expect_diag(std::string("instance m : ") + r.tmpl + " { " + r.param +
                    " = -1; };\n",
                std::string("parameter '") + r.param +
                    "' must be non-negative, got -1",
                full_registry());
  }
}

// A random source draws from [0, range): an empty range is a diagnostic,
// not a constant 0, and a negative one is not a wrap to huge values.
TEST(LssErrors, EmptyRandomSourceRangeIsRejected) {
  expect_diag(
      "instance s : pcl.source { kind = \"random\"; range = 0; };\n",
      "pcl.source 's': range must be >= 1");
  expect_diag(
      "instance s : pcl.source { kind = \"random\"; range = -3; };\n",
      "parameter 'range' must be non-negative, got -3");
}

TEST(LssErrors, DeclaredPortNeverExported) {
  expect_diag(
      "module m {\n"
      "  inport in;\n"
      "  instance q : pcl.queue;\n"
      "}\n"
      "instance x : m;\n",
      "module 'm' declares port 'in' but never exports it");
}

TEST(LssErrors, ParamRedefinitionInSameScope) {
  expect_diag(
      "param P = 1;\n"
      "param P = 2;\n",
      "redefinition of 'P' in the same scope");
}

TEST(LssErrors, DuplicateInstanceName) {
  expect_diag(
      "instance a : pcl.sink;\n"
      "instance a : pcl.sink;\n",
      "duplicate module instance name 'a'");
}

TEST(LssErrors, UnderConnectedPortFailsFinalize) {
  // pcl.probe demands exactly one input connection; elaboration succeeds
  // but finalize must flag the dangling port.
  expect_diag("instance p : pcl.probe;\n", "requires at least 1");
}

TEST(LssErrors, ConnectToUnknownInstance) {
  expect_diag(
      "instance s : pcl.sink;\n"
      "connect ghost.out -> s.in;\n",
      "no instance named 'ghost'");
}

TEST(LssErrors, DiagnosticsCarrySourceLocation) {
  const std::string msg =
      diagnostic("instance x : no.such.module;\n");
  EXPECT_NE(msg.find("test.lss:1:"), std::string::npos) << msg;
}

// A specification with a purely combinational feedback ring elaborates
// fine — the failure is at runtime, when the fixed point cannot settle
// within the configured iteration cap (lss_run --max-iters).  The
// diagnostic must name the channel chain forming the loop and point at
// the knob, not just report a generic timeout.
TEST(LssErrors, CombinationalLoopDiagnosedWithChannelChain) {
  const std::string src =
      "instance src : pcl.source { kind = \"counter\"; period = 1; };\n"
      "instance arb : pcl.arbiter;\n"
      "instance tee : pcl.tee;\n"
      "instance snk : pcl.sink;\n"
      "connect src.out -> arb.in;\n"
      "connect arb.out -> tee.in;\n"
      "connect tee.out -> arb.in;\n"
      "connect tee.out -> snk.in;\n";
  liberty::core::Netlist netlist;
  liberty::core::lss::build_from_lss(src, "loop.lss", netlist, registry());
  // The analyzed scheduler isolates the ring as an SCC and counts fixed-
  // point passes per group, so the cap fires with the loop attributed
  // (the dynamic scheduler may trip the non-monotone-drive check first,
  // depending on worklist order).
  liberty::core::Simulator sim(netlist, liberty::core::SchedulerKind::Static);
  sim.scheduler().set_iteration_cap(1);
  try {
    sim.run(10);
    FAIL() << "combinational loop converged under cap 1?";
  } catch (const liberty::SimulationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("combinational loop via"), std::string::npos) << msg;
    EXPECT_NE(msg.find("arb"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--max-iters"), std::string::npos) << msg;
  }
}

}  // namespace
