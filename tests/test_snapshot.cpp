// Kernel snapshot/restore: the state-serialization substrate the
// differential oracle's bisection rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "liberty/ccl/ccl.hpp"
#include "liberty/ccl/flit.hpp"
#include "liberty/core/checkpoint.hpp"
#include "liberty/core/state.hpp"
#include "liberty/mpl/messages.hpp"
#include "liberty/mpl/mpl.hpp"
#include "liberty/nil/ethernet.hpp"
#include "liberty/nil/nil.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/support/error.hpp"
#include "liberty/testing/netspec.hpp"
#include "liberty/upl/mem_protocol.hpp"
#include "liberty/upl/pipeline.hpp"
#include "liberty/upl/upl.hpp"
#include "test_util.hpp"

namespace {

using liberty::SimulationError;
using liberty::Value;
using liberty::core::ByteReader;
using liberty::core::ByteWriter;
using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::KernelSnapshot;
using liberty::core::Netlist;
using liberty::core::Simulator;
using liberty::core::StateReader;
using liberty::core::StateWriter;
using liberty::test::params;
using liberty::test::registry;

liberty::testing::NetSpec pipeline_spec() {
  liberty::testing::NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("counter"))},
                                  {"period", Value(std::int64_t{1})}})});
  spec.modules.push_back(
      {"pcl.queue", "q", params({{"depth", Value(std::int64_t{3})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({1, "out", 2, "in"});
  return spec;
}

liberty::testing::NetSpec stochastic_spec() {
  liberty::testing::NetSpec spec;
  spec.modules.push_back({"pcl.source", "src",
                          params({{"kind", Value(std::string("random"))},
                                  {"period", Value(std::int64_t{2})},
                                  {"seed", Value(std::int64_t{99})}})});
  spec.modules.push_back(
      {"pcl.delay", "d", params({{"latency", Value(std::int64_t{2})}})});
  spec.modules.push_back({"pcl.sink", "snk", {}});
  spec.edges.push_back({0, "out", 1, "in"});
  spec.edges.push_back({1, "out", 2, "in"});
  return spec;
}

std::vector<std::string> record_transfers(Simulator& sim,
                                          std::vector<std::string>& into) {
  sim.observe_transfers([&into](const Connection& c, Cycle cycle) {
    into.push_back(std::to_string(cycle) + ":" + std::to_string(c.id()) +
                   "=" + c.data().to_string());
  });
  return into;
}

TEST(StateIo, RoundTripAllSlotTypes) {
  StateWriter w;
  w.put_bool(true);
  w.put_i64(-42);
  w.put_u64(0xdeadbeefULL);
  w.put_size(17);
  w.put_real(2.5);
  w.put_string("hello");
  EXPECT_EQ(w.slots().size(), 6u);

  const std::vector<Value> slots = std::move(w).take();
  StateReader r(slots, "test");
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_u64(), 0xdeadbeefULL);
  EXPECT_EQ(r.get_size(), 17u);
  EXPECT_DOUBLE_EQ(r.get_real(), 2.5);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(StateIo, UnderflowThrowsWithModuleName) {
  const std::vector<Value> slots = {Value(std::int64_t{1})};
  StateReader r(slots, "offender");
  (void)r.get_i64();
  try {
    (void)r.get_i64();
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("offender"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("underflow"), std::string::npos);
  }
}

TEST(StateIo, DigestIsContentNotIdentity) {
  StateWriter a;
  a.put_string("same");
  a.put_i64(7);
  StateWriter b;
  b.put_string(std::string("sa") + "me");
  b.put_i64(7);
  EXPECT_EQ(liberty::core::digest_slots(a.slots()),
            liberty::core::digest_slots(b.slots()));

  StateWriter c;
  c.put_string("different");
  c.put_i64(7);
  EXPECT_NE(liberty::core::digest_slots(a.slots()),
            liberty::core::digest_slots(c.slots()));
}

// fnv1a_mix folds a word's high zero bytes into one multiply; every digest
// the project prints depends on it matching plain byte-at-a-time FNV-1a.
TEST(StateIo, Fnv1aMixMatchesByteSerialFnv1a) {
  const auto reference = [](std::uint64_t h, std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  std::vector<std::uint64_t> words = {0, 0xff, 0xffff, ~0ULL,
                                      0x00ff000000000000ULL,
                                      0x0100000000000001ULL};
  for (int bit = 0; bit < 64; ++bit) words.push_back(std::uint64_t{1} << bit);
  liberty::Rng rng(99);
  for (int i = 0; i < 256; ++i) words.push_back(rng.next() >> (i % 64));
  for (const std::uint64_t h : {liberty::core::kFnv1aInit, std::uint64_t{0},
                                std::uint64_t{0x123456789abcdefULL}}) {
    for (const std::uint64_t w : words) {
      EXPECT_EQ(liberty::core::fnv1a_mix(h, w), reference(h, w))
          << std::hex << "h=" << h << " word=" << w;
    }
  }
  static_assert(liberty::core::fnv1a_mix(liberty::core::kFnv1aInit, 0) ==
                0xa8c7f832281a39c5ULL);
}

// An out-of-tree payload: no digest override.
struct Tagged : liberty::Payload {
  explicit Tagged(int n) : n(n) {}
  [[nodiscard]] std::string describe() const override {
    return "tagged#" + std::to_string(n);
  }
  int n;
};

// --- Payload digest folds ---------------------------------------------------

std::uint64_t value_digest(const Value& v) {
  return liberty::digest_value(liberty::kFnv1aInit, v);
}

/// Links every in-tree payload codec (registration rides the component
/// libraries' register_*() entry points).
void register_payload_codecs() {
  static const bool once = [] {
    liberty::core::ModuleRegistry r;
    liberty::pcl::register_pcl(r);
    liberty::ccl::register_ccl(r);
    liberty::mpl::register_mpl(r);
    liberty::nil::register_nil(r);
    liberty::upl::register_upl(r);
    return true;
  }();
  (void)once;
}

std::string encoded(const Value& v) {
  ByteWriter w;
  liberty::core::encode_value(w, v);
  return std::move(w).take();
}

/// A payload's fold sees every field its checkpoint codec writes.  Flip
/// each bit of the payload's encoding in turn and decode what still
/// decodes whole: the digest must change exactly when the re-encoded
/// bytes do, so a codec field the fold leaves out fails here.  The plain
/// decode builds an equal payload independently; it must digest equal.
void expect_fold_follows_codec(const char* name, const Value& v) {
  const std::string bytes = encoded(v);
  const std::uint64_t h = value_digest(v);
  ByteReader plain(bytes);
  EXPECT_EQ(value_digest(liberty::core::decode_value(plain)), h) << name;

  std::size_t moved = 0;
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    Value back;
    try {
      ByteReader r(flipped);
      back = liberty::core::decode_value(r);
      if (r.remaining() != 0) continue;
    } catch (const liberty::Error&) {
      continue;  // no longer a whole value
    }
    const bool bytes_moved = encoded(back) != bytes;
    moved += bytes_moved ? 1 : 0;
    EXPECT_EQ(value_digest(back) != h, bytes_moved)
        << name << ": bit " << bit % 8 << " of byte " << bit / 8 << " of "
        << bytes.size();
  }
  EXPECT_GT(moved, 0u) << name;
}

TEST(PayloadDigest, FoldFollowsEveryInTreeCodec) {
  register_payload_codecs();
  using liberty::pcl::MemReq;
  expect_fold_follows_codec("pcl.memreq",
                            Value::make<MemReq>(MemReq::Op::Write, 64, 1, 3));
  expect_fold_follows_codec("pcl.memresp",
                            Value::make<liberty::pcl::MemResp>(3, 7, true));
  expect_fold_follows_codec(
      "pcl.stamped",
      Value::make<liberty::pcl::Stamped>(
          Value::make<MemReq>(MemReq::Op::Read, 8, 2, 5), 10));
  expect_fold_follows_codec(
      "ccl.flit", Value::make<liberty::ccl::Flit>(
                      1, 2, 3, 4, 1, true, false, Value(std::int64_t{9})));
  using liberty::mpl::CohMsg;
  expect_fold_follows_codec(
      "mpl.cohmsg",
      Value::make<CohMsg>(CohMsg::Type::Data, 64, 1, 2, 3,
                          std::vector<std::int64_t>{1, 2}, true));
  expect_fold_follows_codec(
      "mpl.dmachunk", Value::make<liberty::mpl::DmaChunk>(
                          1, 64, std::vector<std::int64_t>{5, 6}, 9, true));
  expect_fold_follows_codec(
      "nil.ethframe", Value::make<liberty::nil::EthFrame>(
                          1, 2, std::vector<std::int64_t>{3, 4}, 0xabcd));
  using liberty::upl::LineReq;
  expect_fold_follows_codec(
      "upl.linereq",
      Value::make<LineReq>(LineReq::Kind::Writeback, 64, 3, 1,
                           std::vector<std::int64_t>{8, 9}));
  expect_fold_follows_codec(
      "upl.lineresp",
      Value::make<liberty::upl::LineResp>(
          64, 3, 1, std::vector<std::int64_t>{8, 9}, true));
  auto tok = std::make_shared<liberty::upl::InstrToken>();
  tok->pc = 1;
  tok->seq = 2;
  tok->epoch = 3;
  tok->instr = {liberty::upl::Op::Add, 1, 2, 3, 4};
  tok->pred_taken = true;
  tok->pred_target = 5;
  tok->a = 6;
  tok->b = 7;
  tok->result = {8, 9, true, 10, true, true, 11};
  expect_fold_follows_codec(
      "upl.instr", Value(std::shared_ptr<const liberty::Payload>(tok)));
  auto res = std::make_shared<liberty::upl::Resolution>();
  res->branch_pc = 1;
  res->branch_seq = 2;
  res->taken = true;
  res->target = 3;
  res->mispredicted = true;
  res->is_conditional = true;
  expect_fold_follows_codec(
      "upl.resolution", Value(std::shared_ptr<const liberty::Payload>(res)));
}

// Two payload types with equal field words still digest apart (each fold
// starts with its type's tag).
TEST(PayloadDigest, TypeTagSeparatesPayloadTypes) {
  using liberty::upl::LineResp;
  const Value a = Value::make<liberty::mpl::DmaChunk>(
      1, 64, std::vector<std::int64_t>{5}, 9, false);
  const Value b = Value::make<LineResp>(
      1, 64, 9, std::vector<std::int64_t>{5}, false);
  EXPECT_NE(value_digest(a), value_digest(b));
}

// A payload that does not override the fold digests its describe() bytes,
// exactly as every payload did before payload folds existed.
TEST(PayloadDigest, DefaultFoldHashesDescribeBytes) {
  const Value v = Value::make<Tagged>(7);
  const std::uint64_t expect = liberty::fnv1a_bytes(
      liberty::fnv1a_mix(liberty::kFnv1aInit, v.raw().index()), "tagged#7");
  EXPECT_EQ(value_digest(v), expect);
}

// --- Digest-only StateWriter -------------------------------------------------

template <typename Put>
std::uint64_t streamed_digest(Put put) {
  StateWriter w(StateWriter::digest_only);
  put(w);
  return w.digest();
}

// Module::state_digest streams save_state through a digest-only writer;
// for every slot kind that must equal digest_slots over the slots a
// storing writer keeps.
TEST(StateIo, DigestOnlyWriterEqualsDigestSlotsForEverySlotKind) {
  const auto check = [](const char* what, auto put) {
    StateWriter stored;
    put(stored);
    EXPECT_EQ(streamed_digest(put), liberty::core::digest_slots(stored.slots()))
        << what;
  };
  check("empty", [](StateWriter&) {});
  check("bool", [](StateWriter& w) {
    w.put_bool(true);
    w.put_bool(false);
  });
  check("i64", [](StateWriter& w) {
    w.put_i64(-42);
    w.put_i64(0);
    w.put_i64(std::numeric_limits<std::int64_t>::min());
  });
  check("u64", [](StateWriter& w) {
    w.put_u64(0xdeadbeefULL);
    w.put_u64(~0ULL);
  });
  check("size", [](StateWriter& w) { w.put_size(17); });
  check("real", [](StateWriter& w) {
    w.put_real(2.5);
    w.put_real(-0.0);
  });
  check("string", [](StateWriter& w) {
    w.put_string("hello");
    w.put_string("");
  });
  check("payload", [](StateWriter& w) { w.put(Value::make<Tagged>(3)); });
  check("token", [](StateWriter& w) { w.put(Value()); });
  check("mixed", [](StateWriter& w) {
    w.put_size(3);
    w.put(Value::make<Tagged>(1));
    w.put_real(0.125);
    w.put(Value());
    w.put_string("tail");
    w.put_bool(true);
  });
}

TEST(StateIo, DigestOnlyWriterIsOrderCountAndTypeSensitive) {
  EXPECT_NE(streamed_digest([](StateWriter& w) {
              w.put_i64(1);
              w.put_i64(2);
            }),
            streamed_digest([](StateWriter& w) {
              w.put_i64(2);
              w.put_i64(1);
            }));
  EXPECT_NE(streamed_digest([](StateWriter&) {}),
            streamed_digest([](StateWriter& w) { w.put_i64(0); }));
  EXPECT_NE(streamed_digest([](StateWriter& w) { w.put_i64(1); }),
            streamed_digest([](StateWriter& w) { w.put_bool(true); }));
}

TEST(StateIo, DigestOnlyWriterStoresNoSlot) {
  const auto payload = std::make_shared<const Tagged>(7);
  StateWriter w(StateWriter::digest_only);
  w.put_bool(true);
  w.put_i64(-1);
  w.put_u64(2);
  w.put_size(3);
  w.put_real(4.0);
  w.put_string("five");
  w.put(Value(std::static_pointer_cast<const liberty::Payload>(payload)));
  w.put(Value());
  EXPECT_TRUE(w.slots().empty());
  EXPECT_EQ(payload.use_count(), 1);  // no reference kept past the put
  EXPECT_TRUE(std::move(w).take().empty());
}

// The core guarantee: restore + replay reproduces the original execution
// transfer for transfer, ending in the same state digest.
TEST(Snapshot, RestoreReplayIsBitIdentical) {
  for (const auto& spec : {pipeline_spec(), stochastic_spec()}) {
    Netlist netlist;
    spec.build(netlist, registry());
    Simulator sim(netlist);

    std::vector<std::string> log;
    record_transfers(sim, log);

    for (int i = 0; i < 40; ++i) sim.step();
    const KernelSnapshot snap = sim.snapshot();
    EXPECT_EQ(snap.cycle, 40u);

    log.clear();
    for (int i = 0; i < 40; ++i) sim.step();
    const std::vector<std::string> original = log;
    const std::uint64_t end_digest = sim.snapshot().digest();

    sim.restore(snap);
    EXPECT_EQ(sim.now(), 40u);
    EXPECT_EQ(sim.snapshot().digest(), snap.digest());

    log.clear();
    for (int i = 0; i < 40; ++i) sim.step();
    EXPECT_EQ(log, original);
    EXPECT_EQ(sim.snapshot().digest(), end_digest);
  }
}

// Restored state must be loadable into a *fresh* elaboration of the same
// spec — that is how the oracle builds its bisection simulators.
TEST(Snapshot, RestoreIntoFreshNetlist) {
  const auto spec = stochastic_spec();
  Netlist first;
  spec.build(first, registry());
  Simulator sim_a(first);
  std::vector<std::string> log_a;
  record_transfers(sim_a, log_a);
  for (int i = 0; i < 30; ++i) sim_a.step();
  const KernelSnapshot snap = sim_a.snapshot();
  log_a.clear();
  for (int i = 0; i < 30; ++i) sim_a.step();

  Netlist second;
  spec.build(second, registry());
  Simulator sim_b(second);
  sim_b.restore(snap);
  EXPECT_EQ(sim_b.now(), 30u);
  std::vector<std::string> log_b;
  record_transfers(sim_b, log_b);
  for (int i = 0; i < 30; ++i) sim_b.step();
  EXPECT_EQ(log_b, log_a);
}

// Restore under -O2: fused-chain sweeps are single-shot per cycle, guarded
// by cycle stamps, and an aborted cycle leaves channels half resolved.  The
// kernel must reset all in-flight scheduler state (channels, chain stamps)
// on restore, or the replay skips sweeps or reads stale channel values and
// diverges from the original.
TEST(Snapshot, RestoreUnderO2GatingReplaysBitIdentical) {
  for (const auto& spec : {pipeline_spec(), stochastic_spec()}) {
    Netlist netlist;
    spec.build(netlist, registry());
    liberty::opt::optimize(netlist, liberty::opt::OptOptions::for_level(2));
    for (const auto kind : {liberty::core::SchedulerKind::Dynamic,
                            liberty::core::SchedulerKind::Static}) {
      Simulator sim(netlist, kind);
      std::vector<std::string> log;
      record_transfers(sim, log);

      for (int i = 0; i < 40; ++i) sim.step();
      const KernelSnapshot snap = sim.snapshot();
      log.clear();
      for (int i = 0; i < 40; ++i) sim.step();
      const std::vector<std::string> original = log;
      const std::uint64_t end_digest = sim.snapshot().digest();

      sim.restore(snap);
      log.clear();
      for (int i = 0; i < 40; ++i) sim.step();
      EXPECT_EQ(log, original) << "scheduler kind "
                               << static_cast<int>(kind);
      EXPECT_EQ(sim.snapshot().digest(), end_digest);
    }
  }
}

TEST(Snapshot, DigestEvolvesWithState) {
  Netlist netlist;
  pipeline_spec().build(netlist, registry());
  Simulator sim(netlist);
  const std::uint64_t d0 = sim.snapshot().digest();
  for (int i = 0; i < 25; ++i) sim.step();
  EXPECT_NE(sim.snapshot().digest(), d0);
}

TEST(Snapshot, RestoreRejectsShapeMismatch) {
  Netlist a;
  pipeline_spec().build(a, registry());
  Simulator sim_a(a);
  for (int i = 0; i < 5; ++i) sim_a.step();
  const KernelSnapshot snap = sim_a.snapshot();

  // Different module count: refuse outright.
  liberty::testing::NetSpec small;
  small.modules.push_back({"pcl.source", "src",
                           params({{"kind", Value(std::string("counter"))}})});
  small.modules.push_back({"pcl.sink", "snk", {}});
  small.edges.push_back({0, "out", 1, "in"});
  Netlist b;
  small.build(b, registry());
  Simulator sim_b(b);
  EXPECT_THROW(sim_b.restore(snap), SimulationError);

  // Same module count, different module types: the positional protocol
  // cannot line up, and the kernel must say so rather than misload.
  liberty::testing::NetSpec twisted = pipeline_spec();
  twisted.modules[1] = {"pcl.probe", "q", {}};
  Netlist c;
  twisted.build(c, registry());
  Simulator sim_c(c);
  EXPECT_THROW(sim_c.restore(snap), SimulationError);
}

}  // namespace
