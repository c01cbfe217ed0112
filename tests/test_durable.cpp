// Durable checkpoints and crash recovery (docs/resilience.md, "Durable
// checkpoints"): the v1 on-disk format (roundtrip, torn-prefix and
// bit-flip rejection, payload codecs), the DurableSupervisor (atomic
// spill, retention, resume-with-skip, env-fault injection), the
// fork+SIGKILL harness proving a killed run resumes bit-identically for
// every scheduler at -O0 and -O2, the committed golden checkpoint every
// future build must load, and the stable resil.supervisor.* metric
// names.
#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "liberty/ccl/ccl.hpp"
#include "liberty/ccl/flit.hpp"
#include "liberty/core/checkpoint.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/mpl/mpl.hpp"
#include "liberty/obs/metrics.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/pcl/payloads.hpp"
#include "liberty/resil/durable.hpp"
#include "liberty/resil/fault_plan.hpp"
#include "liberty/resil/injector.hpp"
#include "liberty/resil/recovery.hpp"
#include "liberty/resil/watchdog.hpp"
#include "liberty/support/error.hpp"
#include "liberty/testing/netspec.hpp"
#include "test_util.hpp"

#ifndef LIBERTY_REPO_ROOT
#error "LIBERTY_REPO_ROOT must point at the repository checkout"
#endif

namespace {

namespace fs = std::filesystem;

using liberty::Value;
using liberty::core::ByteReader;
using liberty::core::ByteWriter;
using liberty::core::CheckpointImage;
using liberty::core::Cycle;
using liberty::core::Netlist;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::resil::CheckpointCandidate;
using liberty::resil::DurableConfig;
using liberty::resil::DurableSupervisor;
using liberty::resil::FaultClass;
using liberty::resil::FaultInjector;
using liberty::resil::FaultPlan;
using liberty::resil::FaultSpec;
using liberty::resil::RecoveryPolicy;
using liberty::resil::RecoveryReport;
using liberty::resil::SupervisorConfig;
using liberty::test::params;
using liberty::testing::NetSpec;

/// Registry carrying every library whose payload codecs the tests
/// exercise (registration rides the register_*() entry points).
liberty::core::ModuleRegistry& reg() {
  static liberty::core::ModuleRegistry r = [] {
    liberty::core::ModuleRegistry m;
    liberty::pcl::register_pcl(m);
    liberty::ccl::register_ccl(m);
    liberty::mpl::register_mpl(m);
    return m;
  }();
  return r;
}

/// The canonical durable workload: a deterministic counter chain plus a
/// seeded stochastic stamped chain, so checkpoints carry plain slots,
/// Stamped payloads, and live Rng state.
NetSpec durable_spec() {
  NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back(
      {"pcl.queue", "q", params({{"depth", Value(std::int64_t{4})}})});
  spec.modules.push_back(
      {"pcl.delay", "d", params({{"latency", Value(std::int64_t{2})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({1, "out", 2, "in"});
  spec.edges.push_back({2, "out", 3, "in"});
  spec.modules.push_back({"pcl.source", "r0",
                          params({{"kind", Value(std::string("random"))},
                                  {"period", Value(std::int64_t{0})},
                                  {"rate", Value(0.5)},
                                  {"seed", Value(std::int64_t{7})},
                                  {"stamp", Value(true)}})});
  spec.modules.push_back(
      {"pcl.queue", "r1", params({{"depth", Value(std::int64_t{3})}})});
  spec.modules.push_back({"pcl.sink", "r2", {}});
  spec.edges.push_back({4, "out", 5, "in"});
  spec.edges.push_back({5, "out", 6, "in"});
  return spec;
}

void build_netlist(Netlist& nl, const NetSpec& spec, int opt_level) {
  spec.build(nl, reg());
  if (opt_level > 0) {
    liberty::opt::optimize(nl,
                           liberty::opt::OptOptions::for_level(opt_level));
  }
}

SupervisorConfig sup_cfg(SchedulerKind kind, Cycle checkpoint_every) {
  SupervisorConfig scfg;
  scfg.scheduler = kind;
  scfg.checkpoint_every = checkpoint_every;
  scfg.policy = RecoveryPolicy::Abort;
  return scfg;
}

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/liberty-durable-XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
  std::string path;
};

std::uint64_t value_digest(const Value& v) {
  return liberty::core::digest_value(liberty::core::kFnv1aInit, v);
}

Value roundtrip(const Value& v) {
  ByteWriter w;
  liberty::core::encode_value(w, v);
  ByteReader r(w.bytes());
  return liberty::core::decode_value(r);
}

// ---------------------------------------------------------------------------
// Byte-level substrate.

TEST(Checkpoint, Crc32KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(liberty::core::crc32_bytes("123456789", 9), 0xCBF43926u);
  // Chaining equals one-shot.
  const std::uint32_t head = liberty::core::crc32_bytes("1234", 4);
  EXPECT_EQ(liberty::core::crc32_bytes("56789", 5, head), 0xCBF43926u);
}

TEST(Checkpoint, ReaderUnderflowThrowsNeverMisparses) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u32(), 7u);
  EXPECT_THROW((void)r.get_u64(), liberty::Error);
}

TEST(Checkpoint, ValueRoundtripScalars) {
  for (const Value& v :
       {Value(), Value(true), Value(false), Value(std::int64_t{-42}),
        Value(3.25), Value(std::string("hello\0world", 11))}) {
    EXPECT_EQ(value_digest(roundtrip(v)), value_digest(v));
  }
}

TEST(Checkpoint, ValueRoundtripRecursivePayloads) {
  reg();  // force codec registration
  // A Flit whose body is a Stamped wrapping an integer: two codec layers
  // plus a scalar, exercising the recursive encode path end to end.
  auto stamped = std::make_shared<liberty::pcl::Stamped>(
      Value(std::int64_t{99}), 17);
  auto flit = std::make_shared<liberty::ccl::Flit>(
      5, 1, 2, 30, 1, true, false,
      Value(std::shared_ptr<const liberty::Payload>(stamped)));
  flit->hops = 3;
  const Value v{std::shared_ptr<const liberty::Payload>(flit)};
  const Value back = roundtrip(v);
  EXPECT_EQ(value_digest(back), value_digest(v));
  const auto* f = dynamic_cast<const liberty::ccl::Flit*>(
      std::get<std::shared_ptr<const liberty::Payload>>(back.raw()).get());
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->packet, 5u);
  EXPECT_EQ(f->hops, 3u);
  EXPECT_FALSE(f->tail);
}

TEST(Checkpoint, UnregisteredPayloadRefusesToEncode) {
  struct NoCodec final : liberty::Payload {
    [[nodiscard]] std::string describe() const override { return "nocodec"; }
  };
  ByteWriter w;
  EXPECT_THROW(liberty::core::encode_value(
                   w, Value(std::shared_ptr<const liberty::Payload>(
                          std::make_shared<NoCodec>()))),
               liberty::Error);
}

// ---------------------------------------------------------------------------
// Container format.

CheckpointImage image_after(Cycle cycles) {
  Netlist nl;
  build_netlist(nl, durable_spec(), 0);
  Simulator sim(nl, SchedulerKind::Static);
  liberty::resil::TraceRecorder rec(nl);
  sim.set_probe(&rec);
  sim.run(cycles);
  CheckpointImage img;
  img.topology_hash = nl.topology_hash();
  img.aux_seed = 0xabcd;
  img.snapshot = sim.snapshot();
  img.trace_hashes = rec.hashes();
  return img;
}

TEST(Checkpoint, ContainerRoundtrip) {
  const CheckpointImage img = image_after(60);
  const std::string bytes = liberty::core::serialize_checkpoint(img);
  CheckpointImage back;
  std::string why;
  ASSERT_TRUE(liberty::core::parse_checkpoint(bytes, back, why)) << why;
  EXPECT_EQ(back.topology_hash, img.topology_hash);
  EXPECT_EQ(back.aux_seed, 0xabcdu);
  EXPECT_EQ(back.snapshot.cycle, img.snapshot.cycle);
  EXPECT_EQ(back.snapshot.stop_requested, img.snapshot.stop_requested);
  EXPECT_EQ(back.snapshot.digest(), img.snapshot.digest());
  EXPECT_EQ(back.trace_hashes, img.trace_hashes);
}

TEST(Checkpoint, EveryTruncationPrefixIsRejected) {
  const std::string bytes =
      liberty::core::serialize_checkpoint(image_after(20));
  CheckpointImage out;
  std::string why;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(liberty::core::parse_checkpoint(
        std::string_view(bytes.data(), n), out, why))
        << "prefix of " << n << "/" << bytes.size()
        << " bytes parsed as valid";
  }
  ASSERT_TRUE(liberty::core::parse_checkpoint(bytes, out, why)) << why;
}

TEST(Checkpoint, BitFlipsAreRejected) {
  const std::string bytes =
      liberty::core::serialize_checkpoint(image_after(20));
  CheckpointImage out;
  std::string why;
  // Flip one bit in every 7th byte (covers prelude, body, and CRC).
  for (std::size_t at = 0; at < bytes.size(); at += 7) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x10);
    EXPECT_FALSE(liberty::core::parse_checkpoint(mutated, out, why))
        << "bit flip at byte " << at << " went undetected";
  }
}

/// A v1 container with a valid CRC around an arbitrary body.
std::string craft_checkpoint(
    const std::function<void(liberty::core::ByteWriter&)>& body) {
  liberty::core::ByteWriter w;
  w.put_u32(liberty::core::kCheckpointMagic);
  w.put_u32(liberty::core::kCheckpointVersion);
  w.put_u64(0);
  const std::size_t body_start = w.size();
  w.put_u64(0);  // topology hash
  w.put_u64(0);  // cycle
  w.put_u8(0);   // stop flag
  w.put_u64(0);  // aux seed
  body(w);
  w.patch_u64(8, w.size() - body_start);
  w.put_u32(liberty::core::crc32_bytes(w.bytes().data(), w.size()));
  return std::move(w).take();
}

TEST(Checkpoint, OversizedCountsAreRejectedBeforeAllocating) {
  // The CRC only catches accidents.  A crafted file declaring 2^64
  // modules, ~2^32 slots or ~2^32 payload words must fail with a reason,
  // not ask for the memory.
  struct Case {
    const char* want;
    std::function<void(liberty::core::ByteWriter&)> body;
  };
  const Case cases[] = {
      {"implausible module count",
       [](liberty::core::ByteWriter& w) {
         w.put_u64(~std::uint64_t{0});
         w.put_u64(0);
       }},
      {"implausible slot count",
       [](liberty::core::ByteWriter& w) {
         w.put_u64(1);
         w.put_u32(0xffffffffU);
         w.put_u64(0);
       }},
      {"implausible trace-hash count",
       [](liberty::core::ByteWriter& w) {
         w.put_u64(0);
         w.put_u64(~std::uint64_t{0} / 8);
       }},
      {"implausible word count",  // inside a payload codec
       [](liberty::core::ByteWriter& w) {
         w.put_u64(1);
         w.put_u32(1);
         w.put_u8(5);  // payload tag
         w.put_string("mpl.cohmsg");
         w.put_u8(0);  // type
         for (int i = 0; i < 4; ++i) w.put_u64(0);  // line, src, dst, tag
         w.put_u32(0xffffffffU);
         w.put_u64(0);
       }},
  };
  reg();  // force codec registration
  for (const Case& c : cases) {
    CheckpointImage out;
    std::string why;
    EXPECT_FALSE(
        liberty::core::parse_checkpoint(craft_checkpoint(c.body), out, why))
        << c.want;
    EXPECT_NE(why.find(c.want), std::string::npos) << why;
  }
  // The same container with honest counts parses.
  CheckpointImage out;
  std::string why;
  EXPECT_TRUE(liberty::core::parse_checkpoint(
      craft_checkpoint([](liberty::core::ByteWriter& w) {
        w.put_u64(1);
        w.put_u32(1);
        w.put_u8(0);  // one token slot
        w.put_u64(1);
        w.put_u64(42);
      }),
      out, why))
      << why;
  EXPECT_EQ(out.trace_hashes, std::vector<std::uint64_t>{42});
}

TEST(Checkpoint, DeepPayloadNestingIsRejectedNotAStackOverflow) {
  // pcl.stamped carries a value, so payloads nest.  100k levels is a
  // 1.6 MB file with a valid CRC; decoding it recursively would exhaust
  // the stack.
  reg();  // force codec registration
  const auto nested = [](std::size_t depth) {
    return craft_checkpoint([depth](liberty::core::ByteWriter& w) {
      w.put_u64(1);
      w.put_u32(1);
      for (std::size_t i = 0; i < depth; ++i) {
        w.put_u8(5);  // payload tag
        w.put_string("pcl.stamped");
      }
      w.put_u8(0);  // innermost token
      for (std::size_t i = 0; i < depth; ++i) w.put_u64(i);  // born stamps
      w.put_u64(0);
    });
  };
  CheckpointImage out;
  std::string why;
  EXPECT_FALSE(liberty::core::parse_checkpoint(nested(100000), out, why));
  EXPECT_NE(why.find("nest deeper than 256"), std::string::npos) << why;
  EXPECT_TRUE(liberty::core::parse_checkpoint(
      nested(liberty::core::ByteReader::kMaxNesting), out, why))
      << why;
}

TEST(Checkpoint, TopologyHashIsStructuralAndStable) {
  Netlist a;
  build_netlist(a, durable_spec(), 0);
  Netlist b;
  build_netlist(b, durable_spec(), 0);
  EXPECT_EQ(a.topology_hash(), b.topology_hash());
  NetSpec other = durable_spec();
  other.modules.push_back({"pcl.sink", "extra", {}});
  Netlist c;
  build_netlist(c, other, 0);
  EXPECT_NE(a.topology_hash(), c.topology_hash());
}

// ---------------------------------------------------------------------------
// DurableSupervisor: spill, retention, resume.

TEST(Durable, WritesAtomicallyAndPrunesToKeepLast) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  Netlist nl;
  build_netlist(nl, durable_spec(), 2);
  DurableConfig dcfg;
  dcfg.dir = dir.path;
  dcfg.keep_last = 2;
  DurableSupervisor sup(nl, sup_cfg(SchedulerKind::Static, 10), dcfg);
  const RecoveryReport rep = sup.run(100);
  ASSERT_TRUE(rep.completed) << rep.summary();
  EXPECT_GE(sup.stats().checkpoints_written, 10u);
  EXPECT_GT(sup.stats().bytes_written, 0u);

  const auto list =
      liberty::resil::scan_checkpoints(dir.path, nl.topology_hash());
  ASSERT_EQ(list.size(), 2u);  // retention pruned everything older
  EXPECT_EQ(list[0].cycle, 100u);  // newest first
  EXPECT_EQ(list[1].cycle, 90u);
  EXPECT_TRUE(list[0].valid) << list[0].reason;
  EXPECT_TRUE(list[1].valid) << list[1].reason;
  // No temp droppings survive the atomic publish discipline.
  for (const auto& e : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(e.path().extension(), ".lck") << e.path();
  }
}

/// Run the workload under a DurableSupervisor; returns (trace, state).
std::pair<std::uint64_t, std::uint64_t> durable_run(const std::string& dir,
                                                    SchedulerKind kind,
                                                    int opt_level, Cycle cycles,
                                                    bool resume) {
  Netlist nl;
  build_netlist(nl, durable_spec(), opt_level);
  DurableConfig dcfg;
  dcfg.dir = dir;
  dcfg.keep_last = 8;
  dcfg.resume = resume;
  DurableSupervisor sup(nl, sup_cfg(kind, 20), dcfg);
  const RecoveryReport rep = sup.run(cycles);
  EXPECT_TRUE(rep.completed) << rep.summary();
  return {rep.trace_digest(), rep.state_digest};
}

TEST(Durable, ResumeReproducesTheUninterruptedDigest) {
  TempDir full_dir;
  const auto full =
      durable_run(full_dir.path, SchedulerKind::Static, 0, 240, false);

  TempDir dir;
  // Phase 1: run only part way (last spill lands at cycle 100).
  durable_run(dir.path, SchedulerKind::Static, 0, 117, false);
  // Phase 2: a fresh process image resumes and finishes the run.
  const auto resumed =
      durable_run(dir.path, SchedulerKind::Static, 0, 240, true);
  EXPECT_EQ(resumed.first, full.first) << "trace digest diverged";
  EXPECT_EQ(resumed.second, full.second) << "state digest diverged";
}

TEST(Durable, ResumeSkipsCorruptNewestWithDiagnostic) {
  TempDir full_dir;
  const auto full = durable_run(full_dir.path, SchedulerKind::Static, 2,
                                200, false);

  TempDir dir;
  durable_run(dir.path, SchedulerKind::Static, 2, 130, false);
  // Corrupt the newest file (cycle 120) and truncate the one before it.
  {
    std::fstream f(dir.path + "/ckpt-000000000120.lck",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    f.put('\x5a');
  }
  fs::resize_file(dir.path + "/ckpt-000000000100.lck", 13);

  Netlist nl;
  build_netlist(nl, durable_spec(), 2);
  DurableConfig dcfg;
  dcfg.dir = dir.path;
  dcfg.keep_last = 8;
  dcfg.resume = true;
  DurableSupervisor sup(nl, sup_cfg(SchedulerKind::Static, 20), dcfg);
  const RecoveryReport rep = sup.run(200);
  ASSERT_TRUE(rep.completed) << rep.summary();
  EXPECT_EQ(sup.stats().corrupt_skipped, 2u);
  EXPECT_EQ(sup.resumed_from(), 80u);
  EXPECT_EQ(rep.trace_digest(), full.first);
  EXPECT_EQ(rep.state_digest, full.second);
  bool saw_skip = false;
  for (const auto& d : sup.diagnostics()) {
    if (d.find("skipped") != std::string::npos) saw_skip = true;
  }
  EXPECT_TRUE(saw_skip);
}

TEST(Durable, ResumeFromEmptyDirectoryStartsFresh) {
  TempDir dir;
  Netlist nl;
  build_netlist(nl, durable_spec(), 0);
  DurableConfig dcfg;
  dcfg.dir = dir.path;
  dcfg.resume = true;
  DurableSupervisor sup(nl, sup_cfg(SchedulerKind::Static, 50), dcfg);
  const RecoveryReport rep = sup.run(60);
  ASSERT_TRUE(rep.completed) << rep.summary();
  EXPECT_EQ(sup.resumed_from(), 0u);
  EXPECT_EQ(sup.stats().resumes, 0u);
  bool saw_fresh = false;
  for (const auto& d : sup.diagnostics()) {
    if (d.find("starting fresh") != std::string::npos) saw_fresh = true;
  }
  EXPECT_TRUE(saw_fresh);
}

TEST(Durable, DescribeCandidatesIsTheSharedMessagePath) {
  // Missing directory.
  const auto none = liberty::resil::scan_checkpoints("/nonexistent/nope", 0);
  EXPECT_TRUE(none.empty());
  EXPECT_NE(liberty::resil::describe_candidates("/nonexistent/nope", none)
                .find("does not exist"),
            std::string::npos);

  // A directory holding one good and one torn file.
  TempDir dir;
  Netlist nl;
  build_netlist(nl, durable_spec(), 0);
  DurableConfig dcfg;
  dcfg.dir = dir.path;
  DurableSupervisor sup(nl, sup_cfg(SchedulerKind::Static, 30), dcfg);
  ASSERT_TRUE(sup.run(60).completed);
  fs::resize_file(dir.path + "/ckpt-000000000060.lck", 21);
  const auto list =
      liberty::resil::scan_checkpoints(dir.path, nl.topology_hash());
  const std::string text =
      liberty::resil::describe_candidates(dir.path, list);
  EXPECT_NE(text.find("ckpt-000000000060.lck"), std::string::npos) << text;
  EXPECT_NE(text.find("REJECTED"), std::string::npos) << text;
  EXPECT_NE(text.find("torn write"), std::string::npos) << text;
  EXPECT_NE(text.find("ok"), std::string::npos) << text;
}

TEST(Durable, TopologyMismatchIsRejectedNotLoaded) {
  TempDir dir;
  Netlist nl;
  build_netlist(nl, durable_spec(), 0);
  DurableConfig dcfg;
  dcfg.dir = dir.path;
  DurableSupervisor sup(nl, sup_cfg(SchedulerKind::Static, 30), dcfg);
  ASSERT_TRUE(sup.run(60).completed);

  NetSpec other = durable_spec();
  other.modules.push_back({"pcl.sink", "extra", {}});
  Netlist changed;
  build_netlist(changed, other, 0);
  const auto list =
      liberty::resil::scan_checkpoints(dir.path, changed.topology_hash());
  ASSERT_FALSE(list.empty());
  for (const auto& c : list) {
    EXPECT_FALSE(c.valid);
    EXPECT_NE(c.reason.find("topology mismatch"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Environment fault classes: torn writes and ENOSPC on the spill path.

TEST(Durable, InjectedTornWritesAreSkippedOnResume) {
  TempDir full_dir;
  const auto full = durable_run(full_dir.path, SchedulerKind::Static, 0,
                                200, false);

  TempDir dir;
  {
    Netlist nl;
  build_netlist(nl, durable_spec(), 0);
    FaultPlan plan;
    plan.seed = 0x7e;
    FaultSpec f;
    f.cls = FaultClass::TornCheckpoint;
    f.from_cycle = 40;
    plan.faults.push_back(f);
    FaultInjector inj(plan);
    DurableConfig dcfg;
    dcfg.dir = dir.path;
    dcfg.keep_last = 16;
    DurableSupervisor sup(nl, sup_cfg(SchedulerKind::Static, 20), dcfg,
                          &inj);
    ASSERT_TRUE(sup.run(100).completed);
    // Every spill from the onset is torn, deterministically.
    EXPECT_GE(inj.sites().size(), 1u);
  }
  // Resume: skips the torn tail, lands on the last pre-onset file.
  Netlist nl;
  build_netlist(nl, durable_spec(), 0);
  DurableConfig dcfg;
  dcfg.dir = dir.path;
  dcfg.keep_last = 16;
  dcfg.resume = true;
  DurableSupervisor sup(nl, sup_cfg(SchedulerKind::Static, 20), dcfg);
  const RecoveryReport rep = sup.run(200);
  ASSERT_TRUE(rep.completed) << rep.summary();
  EXPECT_GE(sup.stats().corrupt_skipped, 3u);
  EXPECT_EQ(sup.resumed_from(), 20u);
  EXPECT_EQ(rep.trace_digest(), full.first);
  EXPECT_EQ(rep.state_digest, full.second);
}

TEST(Durable, InjectedEnospcDegradesToUndurableNotAnError) {
  TempDir dir;
  Netlist nl;
  build_netlist(nl, durable_spec(), 0);
  FaultPlan plan;
  plan.seed = 0x7e;
  FaultSpec f;
  f.cls = FaultClass::CheckpointEnospc;
  f.from_cycle = 0;
  plan.faults.push_back(f);
  FaultInjector inj(plan);
  DurableConfig dcfg;
  dcfg.dir = dir.path;
  DurableSupervisor sup(nl, sup_cfg(SchedulerKind::Static, 20), dcfg,
                        &inj);
  const RecoveryReport rep = sup.run(100);
  ASSERT_TRUE(rep.completed) << rep.summary();  // the run itself succeeds
  EXPECT_EQ(sup.stats().checkpoints_written, 0u);
  EXPECT_GE(sup.stats().write_failures, 1u);
  EXPECT_TRUE(fs::is_empty(dir.path));
  bool saw = false;
  for (const auto& d : sup.diagnostics()) {
    if (d.find("ENOSPC") != std::string::npos) saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(Durable, EnvFaultClassNamesRoundtripThroughJson) {
  FaultPlan plan;
  plan.seed = 9;
  for (const FaultClass cls :
       {FaultClass::TornCheckpoint, FaultClass::CheckpointEnospc}) {
    FaultSpec f;
    f.cls = cls;
    f.from_cycle = 5;
    plan.faults.push_back(f);
  }
  const FaultPlan back = FaultPlan::from_json(plan.to_json());
  ASSERT_EQ(back.faults.size(), 2u);
  EXPECT_EQ(back.faults[0].cls, FaultClass::TornCheckpoint);
  EXPECT_EQ(back.faults[1].cls, FaultClass::CheckpointEnospc);
}

// ---------------------------------------------------------------------------
// The crash harness: fork, SIGKILL mid-run, resume, compare digests — for
// every scheduler at -O0 and -O2.

void kill_midrun(const std::string& dir, SchedulerKind kind, int opt_level,
                 Cycle kill_at, Cycle cycles) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the supervisor raises SIGKILL once `kill_at` commits.  Any
    // other exit is a harness failure the parent will flag.
    Netlist nl;
  build_netlist(nl, durable_spec(), opt_level);
    DurableConfig dcfg;
    dcfg.dir = dir;
    dcfg.keep_last = 8;
    dcfg.kill_at = kill_at;
    DurableSupervisor sup(nl, sup_cfg(kind, 20), dcfg);
    (void)sup.run(cycles);
    ::_exit(42);  // reached only if kill_at never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child was not SIGKILLed (status " << status << ")";
}

TEST(DurableCrash, KilledRunResumesBitIdenticalAcrossSchedulers) {
  liberty::gen::ensure_registered();
  constexpr Cycle kCycles = 160;
  constexpr Cycle kKillAt = 90;
  for (const int opt_level : {0, 2}) {
    TempDir ref_dir;
    const auto full = durable_run(ref_dir.path, SchedulerKind::Static,
                                  opt_level, kCycles, false);
    for (const SchedulerKind kind : liberty::core::kSchedulerKinds) {
      TempDir dir;
      kill_midrun(dir.path, kind, opt_level, kKillAt, kCycles);
      const auto resumed =
          durable_run(dir.path, kind, opt_level, kCycles, true);
      EXPECT_EQ(resumed.first, full.first)
          << "trace digest, scheduler " << static_cast<int>(kind) << " -O"
          << opt_level;
      EXPECT_EQ(resumed.second, full.second)
          << "state digest, scheduler " << static_cast<int>(kind) << " -O"
          << opt_level;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden checkpoint: a file this build (and every future build) must load.

bool updating_golden() {
  const char* env = std::getenv("LIBERTY_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

TEST(DurableGolden, CommittedCheckpointLoadsForever) {
  const std::string path =
      std::string(LIBERTY_REPO_ROOT) + "/tests/golden/checkpoint_v1.lck";
  constexpr Cycle kHalf = 60;
  constexpr Cycle kFull = 120;

  if (updating_golden()) {
    const CheckpointImage img = image_after(kHalf);
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << liberty::core::serialize_checkpoint(img);
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << path << " is missing; regenerate with LIBERTY_UPDATE_GOLDEN=1";
  std::ostringstream bytes;
  bytes << in.rdbuf();
  CheckpointImage img;
  std::string why;
  ASSERT_TRUE(liberty::core::parse_checkpoint(bytes.str(), img, why))
      << "golden checkpoint no longer parses: " << why
      << " — the on-disk format broke compatibility; bump "
         "kCheckpointVersion and keep the v1 parser";

  // It belongs to today's canonical netlist shape...
  Netlist nl;
  build_netlist(nl, durable_spec(), 0);
  ASSERT_EQ(img.topology_hash, nl.topology_hash())
      << "topology hash drifted — golden checkpoints from older builds "
         "would all be rejected";
  ASSERT_EQ(img.snapshot.cycle, kHalf);

  // ...and a run resumed from it is bit-identical to an uninterrupted one.
  Simulator sim(nl, SchedulerKind::Static);
  liberty::resil::TraceRecorder rec(nl);
  sim.set_probe(&rec);
  sim.restore(img.snapshot);
  rec.preload(img.trace_hashes);
  sim.run(kFull - kHalf);

  Netlist ref;
  build_netlist(ref, durable_spec(), 0);
  Simulator ref_sim(ref, SchedulerKind::Static);
  liberty::resil::TraceRecorder ref_rec(ref);
  ref_sim.set_probe(&ref_rec);
  ref_sim.run(kFull);
  EXPECT_EQ(liberty::resil::fold_trace(rec.hashes()),
            liberty::resil::fold_trace(ref_rec.hashes()));
  EXPECT_EQ(sim.snapshot().digest(), ref_sim.snapshot().digest());
}

// ---------------------------------------------------------------------------
// Stable metric names.

TEST(DurableMetrics, StableCounterNames) {
  TempDir dir;
  Netlist nl;
  build_netlist(nl, durable_spec(), 0);
  DurableConfig dcfg;
  dcfg.dir = dir.path;
  DurableSupervisor sup(nl, sup_cfg(SchedulerKind::Static, 20), dcfg);
  ASSERT_TRUE(sup.run(60).completed);

  liberty::obs::MetricsRegistry m;
  sup.export_metrics(m);
  for (const char* name :
       {"resil.supervisor.checkpoints_written",
        "resil.supervisor.checkpoint_bytes", "resil.supervisor.resumes",
        "resil.supervisor.corrupt_skipped",
        "resil.supervisor.write_failures"}) {
    EXPECT_EQ(m.counters().count(name), 1u) << "missing counter " << name;
  }
  EXPECT_GE(m.counters().at("resil.supervisor.checkpoints_written"), 3u);
}

}  // namespace
