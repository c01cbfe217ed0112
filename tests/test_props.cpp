// Property-style tests: randomized netlists must behave identically under
// both schedulers; support-library invariants hold across parameter
// sweeps.
#include <gtest/gtest.h>

#include <map>

#include "liberty/core/simulator.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/support/rng.hpp"
#include "liberty/support/stats.hpp"
#include "test_util.hpp"

namespace {

using liberty::Rng;
using liberty::Value;
using liberty::core::Netlist;
using liberty::core::Params;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using namespace liberty::pcl;
using liberty::test::params;

// ---------------------------------------------------------------------------
// Random netlists: generate a layered dataflow graph from a seed and check
// that both schedulers produce bit-identical transfer counts and sink
// streams.  This is the strongest guarantee behind the paper's ref-[22]
// optimization: the analysis may reorder evaluation, never change results.
// ---------------------------------------------------------------------------

struct NetSignature {
  std::uint64_t transfers = 0;
  std::vector<std::int64_t> stream;
};

NetSignature run_random_net(std::uint64_t seed, SchedulerKind kind) {
  Rng rng(seed);
  Netlist nl;

  // Layer 0: 2-4 sources.
  const std::size_t n_src = 2 + rng.below(3);
  std::vector<liberty::core::Module*> frontier;
  for (std::size_t i = 0; i < n_src; ++i) {
    frontier.push_back(&nl.make<Source>(
        "src" + std::to_string(i),
        params({{"kind", "counter"},
                {"period", static_cast<int>(1 + rng.below(3))},
                {"count", static_cast<int>(20 + rng.below(60))},
                {"seed", static_cast<int>(seed + i)}})));
  }

  // 2-4 middle layers of randomly chosen primitives.
  const std::size_t layers = 2 + rng.below(3);
  for (std::size_t l = 0; l < layers; ++l) {
    std::vector<liberty::core::Module*> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const std::string name = "m" + std::to_string(l) + "_" +
                               std::to_string(i);
      liberty::core::Module* m = nullptr;
      switch (rng.below(4)) {
        case 0:
          m = &nl.make<Queue>(
              name, params({{"depth", static_cast<int>(1 + rng.below(6))}}));
          break;
        case 1:
          m = &nl.make<Delay>(
              name,
              params({{"latency", static_cast<int>(1 + rng.below(4))}}));
          break;
        case 2:
          m = &nl.make<Buffer>(
              name,
              params({{"capacity", static_cast<int>(2 + rng.below(6))}}));
          break;
        default:
          m = &nl.make<Probe>(name, Params());
          break;
      }
      nl.connect(frontier[i]->out("out"), m->in("in"));
      next.push_back(m);
    }
    // Occasionally merge two lanes through an arbiter.
    if (next.size() >= 2 && rng.chance(0.5)) {
      auto& arb = nl.make<Arbiter>("arb" + std::to_string(l), Params());
      nl.connect(next[0]->out("out"), arb.in("in"));
      nl.connect(next[1]->out("out"), arb.in("in"));
      std::vector<liberty::core::Module*> merged{&arb};
      for (std::size_t k = 2; k < next.size(); ++k) merged.push_back(next[k]);
      next = merged;
    }
    frontier = next;
  }

  // Terminal sinks.
  NetSignature sig;
  std::vector<Sink*> sinks;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    auto& sink = nl.make<Sink>("sink" + std::to_string(i), Params());
    nl.connect(frontier[i]->out("out"), sink.in("in"));
    sinks.push_back(&sink);
  }
  nl.finalize();

  std::vector<std::int64_t>* stream = &sig.stream;
  for (auto* s : sinks) {
    s->set_consume_hook([stream](const Value& v, liberty::core::Cycle) {
      stream->push_back(v.is_int() ? v.as_int() : -1);
    });
  }

  Simulator sim(nl, kind);
  sim.run(800);
  for (const auto& c : nl.connections()) sig.transfers += c->transfer_count();
  return sig;
}

class RandomNet : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNet, SchedulersBitIdentical) {
  const NetSignature dyn = run_random_net(GetParam(), SchedulerKind::Dynamic);
  const NetSignature sta = run_random_net(GetParam(), SchedulerKind::Static);
  EXPECT_EQ(dyn.transfers, sta.transfers);
  EXPECT_EQ(dyn.stream, sta.stream);
  EXPECT_GT(dyn.transfers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNet,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u, 5150u,
                                           8086u, 68000u, 271828u, 314159u));

// ---------------------------------------------------------------------------
// Conservation: whatever enters a lossless network leaves it.
// ---------------------------------------------------------------------------

class Conservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Conservation, NoItemCreatedOrLost) {
  const auto run = [&](SchedulerKind kind) {
    Rng rng(GetParam());
    Netlist nl;
    const int count = 30 + static_cast<int>(rng.below(50));
    auto& src = nl.make<Source>(
        "src", params({{"kind", "counter"}, {"period", 1}, {"count", count}}));
    auto& dm = nl.make<Demux>("dm", Params());
    auto& arb = nl.make<Arbiter>("arb", Params());
    auto& sink = nl.make<Sink>("sink", Params());
    const std::size_t fan = 2 + rng.below(3);
    dm.set_selector([fan](const Value& v) {
      return static_cast<std::size_t>(v.as_int()) % fan;
    });
    nl.connect(src.out("out"), dm.in("in"));
    for (std::size_t i = 0; i < fan; ++i) {
      auto& q = nl.make<Queue>(
          "q" + std::to_string(i),
          params({{"depth", static_cast<int>(1 + rng.below(5))}}));
      nl.connect_at(dm.out("out"), i, q.in("in"), 0);
      nl.connect(q.out("out"), arb.in("in"));
    }
    nl.connect(arb.out("out"), sink.in("in"));
    nl.finalize();
    Simulator sim(nl, kind);
    sim.run(2000);
    EXPECT_EQ(sink.consumed(), static_cast<std::uint64_t>(count))
        << "scheduler " << sim.scheduler().kind_name();
  };
  run(SchedulerKind::Dynamic);
  run(SchedulerKind::Static);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conservation,
                         ::testing::Values(3u, 17u, 23u, 171u, 7777u));

// ---------------------------------------------------------------------------
// Support-library invariants
// ---------------------------------------------------------------------------

TEST(RngProps, DeterministicAndReseedable) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
  a.reseed(42);
  Rng c(42);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next(), c.next());
}

TEST(RngProps, BelowStaysInRange) {
  Rng r(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) ASSERT_LT(r.below(bound), bound);
  }
}

TEST(RngProps, UniformIsRoughlyUniform) {
  Rng r(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(StatsProps, HistogramQuantilesOrdered) {
  liberty::Histogram h(64, 1.0);
  Rng r(5);
  for (int i = 0; i < 5000; ++i) h.add(static_cast<double>(r.below(60)));
  EXPECT_LE(h.quantile(0.25), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
  EXPECT_EQ(h.summary().count(), 5000u);
}

TEST(StatsProps, AccumulatorMinMaxMean) {
  liberty::Accumulator a;
  for (const double x : {3.0, -1.0, 7.0, 0.0}) a.add(x);
  EXPECT_EQ(a.min(), -1.0);
  EXPECT_EQ(a.max(), 7.0);
  EXPECT_DOUBLE_EQ(a.mean(), 9.0 / 4.0);
}

TEST(ValueProps, EqualityAndCoercions) {
  EXPECT_EQ(Value(std::int64_t{5}), Value(std::int64_t{5}));
  EXPECT_FALSE(Value(std::int64_t{5}) == Value(std::int64_t{6}));
  EXPECT_EQ(Value(true).as_int(), 1);
  EXPECT_EQ(Value(std::int64_t{0}).as_bool(), false);
  EXPECT_DOUBLE_EQ(Value(std::int64_t{3}).as_real(), 3.0);
  EXPECT_THROW(Value("x").as_int(), liberty::SimulationError);
  EXPECT_TRUE(Value().is_token());
}

TEST(ValueProps, PayloadRoundTrip) {
  const Value v = Value::make<liberty::pcl::Stamped>(Value(7), 123);
  const auto p = v.as<liberty::pcl::Stamped>();
  EXPECT_EQ(p->inner.as_int(), 7);
  EXPECT_EQ(p->born, 123u);
  EXPECT_EQ(v.try_as<liberty::pcl::MemReq>(), nullptr);
  EXPECT_THROW((void)v.as<liberty::pcl::MemReq>(), liberty::SimulationError);
}

TEST(ParamsProps, UnusedParametersDetected) {
  liberty::core::Params p;
  p.set("depth", 4).set("depht", 8);  // typo
  (void)p.get_int("depth", 0);
  const auto unused = p.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "depht");
}

TEST(ParamsProps, RegistryRejectsUnknownParams) {
  EXPECT_THROW(liberty::test::registry().instantiate(
                   "pcl.queue", "q",
                   liberty::test::params({{"depht", 4}})),
               liberty::ElaborationError);
}

TEST(RegistryProps, CatalogListsEveryLibrary) {
  const auto list = liberty::test::registry().list();
  bool has_pcl = false;
  for (const auto* info : list) {
    if (info->name.rfind("pcl.", 0) == 0) has_pcl = true;
  }
  EXPECT_TRUE(has_pcl);
  EXPECT_GE(list.size(), 13u);
}

}  // namespace
