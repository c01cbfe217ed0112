// LRISC ISA: assembler, emulator, predictors, cache model.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "liberty/upl/isa.hpp"
#include "liberty/upl/predictors.hpp"
#include "liberty/upl/cache.hpp"
#include "liberty/upl/workloads.hpp"
#include "liberty/support/error.hpp"

namespace {

using namespace liberty::upl;

// ---------------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------------

TEST(Assembler, BasicProgramAssembles) {
  const Program p = assemble(R"(
    ; compute 2 + 3
    li r1, 2
    li r2, 3
    add r3, r1, r2
    out r3
    halt
  )");
  ASSERT_EQ(p.code.size(), 5u);
  EXPECT_EQ(p.code[2].op, Op::Add);
  EXPECT_EQ(p.code[2].rd, 3);
}

TEST(Assembler, LabelsResolveForwardAndBackward) {
  const Program p = assemble(R"(
    j skip
    halt
    skip:
    beq r0, r0, end
    nop
    end:
    halt
  )");
  EXPECT_EQ(p.code[0].imm, 2);  // skip
  EXPECT_EQ(p.code[2].imm, 4);  // end
}

TEST(Assembler, MemoryOperandsAndDataDirective) {
  const Program p = assemble(R"(
    .word 10, 42
    lw r1, 10(r0)
    sw r1, -2(r5)
    halt
  )");
  EXPECT_EQ(p.data.at(10), 42);
  EXPECT_EQ(p.code[0].imm, 10);
  EXPECT_EQ(p.code[1].imm, -2);
  EXPECT_EQ(p.code[1].rs1, 5);
  EXPECT_EQ(p.code[1].rs2, 1);
}

TEST(Assembler, HexImmediates) {
  const Program p = assemble("li r1, 0x10\nhalt\n");
  EXPECT_EQ(p.code[0].imm, 16);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    assemble("nop\nbogus r1, r2\n", "prog.s");
    FAIL() << "expected SpecError";
  } catch (const liberty::SpecError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW(assemble("add r1, r2\n"), liberty::SpecError);      // arity
  EXPECT_THROW(assemble("add r1, r2, r40\n"), liberty::SpecError); // reg range
  EXPECT_THROW(assemble("j nowhere\n"), liberty::SpecError);       // label
  EXPECT_THROW(assemble("x: x: nop\n"), liberty::SpecError);       // dup label
}

// ---------------------------------------------------------------------------
// Emulator semantics
// ---------------------------------------------------------------------------

TEST(Emulator, ArithmeticAndShifts) {
  const Program p = assemble(R"(
    li r1, 7
    li r2, 3
    add r3, r1, r2
    sub r4, r1, r2
    mul r5, r1, r2
    div r6, r1, r2
    rem r7, r1, r2
    sll r8, r1, r2
    slt r9, r2, r1
    out r3
    out r4
    out r5
    out r6
    out r7
    out r8
    out r9
    halt
  )");
  ArchState st(p);
  st.run();
  const std::vector<std::int64_t> expect = {10, 4, 21, 2, 1, 56, 1};
  EXPECT_EQ(st.output(), expect);
}

TEST(Emulator, R0IsHardwiredZero) {
  const Program p = assemble("li r0, 99\nout r0\nhalt\n");
  ArchState st(p);
  st.run();
  ASSERT_EQ(st.output().size(), 1u);
  EXPECT_EQ(st.output()[0], 0);
}

TEST(Emulator, LoadsAndStores) {
  const Program p = assemble(R"(
    li r1, 123
    sw r1, 50(r0)
    lw r2, 50(r0)
    out r2
    halt
  )");
  ArchState st(p);
  st.run();
  EXPECT_EQ(st.output().at(0), 123);
  EXPECT_EQ(st.load(50), 123);
}

TEST(Emulator, JalLinksAndJalrReturns) {
  const Program p = assemble(R"(
      jal r31, func
      out r1
      halt
    func:
      li r1, 77
      jalr r0, r31
  )");
  ArchState st(p);
  st.run();
  EXPECT_EQ(st.output().at(0), 77);
}

TEST(Emulator, DivisionByZeroIsDefined) {
  const Program p = assemble(R"(
    li r1, 5
    div r2, r1, r0
    rem r3, r1, r0
    out r2
    out r3
    halt
  )");
  ArchState st(p);
  st.run();
  EXPECT_EQ(st.output().at(0), -1);  // div by zero -> -1
  EXPECT_EQ(st.output().at(1), 5);   // rem by zero -> dividend
}

// ---------------------------------------------------------------------------
// Workload correctness on the emulator (the golden results every timing
// model must reproduce)
// ---------------------------------------------------------------------------

TEST(Workloads, SumLoop) {
  ArchState st(assemble(workloads::sum_loop(100)));
  st.run();
  EXPECT_EQ(st.output().at(0), 5050);
}

TEST(Workloads, Fibonacci) {
  ArchState st(assemble(workloads::fibonacci(20)));
  st.run();
  EXPECT_EQ(st.output().at(0), 6765);
}

TEST(Workloads, ArraySum) {
  ArchState st(assemble(workloads::array_sum(50)));
  st.run();
  EXPECT_EQ(st.output().at(0), 50 * 49 / 2);
}

TEST(Workloads, Sieve) {
  ArchState st(assemble(workloads::sieve(100)));
  st.run();
  EXPECT_EQ(st.output().at(0), 25);  // 25 primes <= 100
}

TEST(Workloads, Matmul) {
  ArchState st(assemble(workloads::matmul(4)));
  st.run(200000);
  // A[i][j]=i+j, B[i][j]=i-j, C=A*B.  C[0][0] = sum_k k*k... check by hand:
  // C[0][0] = sum_k (0+k)*(k-0) = 0+1+4+9 = 14.
  EXPECT_EQ(st.output().at(0), 14);
  // C[3][3] = sum_k (3+k)*(k-3) = -9 + -8 + -5 + 0 = -22.
  EXPECT_EQ(st.output().at(1), -22);
}

TEST(Workloads, PointerChaseReturnsRingAddress) {
  ArchState st(assemble(workloads::pointer_chase(16, 8, 35)));
  st.run(100000);
  // After 35 hops around a 16-node ring starting at node 0 we are at node
  // 35 % 16 = 3... the value OUT is the address loaded on the last hop,
  // i.e. node (35 % 16) = 3 -> 4096 + 3*8.
  EXPECT_EQ(st.output().at(0), 4096 + (35 % 16) * 8);
}

TEST(Workloads, ProducerConsumerHandshake) {
  // Sequentially: producer fills, consumer sums.
  ArchState prod(assemble(workloads::producer(10, 900)));
  prod.run();
  ArchState cons(assemble(workloads::consumer(10, 900)));
  // Transplant producer memory into consumer (sequential stand-in for the
  // shared-memory run exercised properly in the MPL tests).
  for (int i = 0; i <= 10; ++i) {
    cons.store(900 + static_cast<std::uint64_t>(i),
               prod.load(900 + static_cast<std::uint64_t>(i)));
  }
  cons.run();
  EXPECT_EQ(cons.output().at(0), 45);
}

// ---------------------------------------------------------------------------
// Predictors
// ---------------------------------------------------------------------------

TEST(Predictors, BimodalLearnsABias) {
  BimodalPredictor p(64);
  for (int i = 0; i < 10; ++i) p.update(100, true);
  EXPECT_TRUE(p.predict(100));
  for (int i = 0; i < 20; ++i) p.update(100, false);
  EXPECT_FALSE(p.predict(100));
}

TEST(Predictors, GShareLearnsAlternation) {
  // T,N,T,N... bimodal oscillates; gshare keys on history and converges.
  GSharePredictor g(1024);
  bool dir = false;
  int correct_late = 0;
  for (int i = 0; i < 400; ++i) {
    dir = !dir;
    const bool pred = g.predict(7);
    if (i >= 200 && pred == dir) ++correct_late;
    g.update(7, dir);
  }
  EXPECT_GT(correct_late, 190);  // near-perfect after warmup
}

TEST(Predictors, TournamentAtLeastMatchesComponentsOnBias) {
  TournamentPredictor t(256);
  for (int i = 0; i < 50; ++i) t.update(3, true);
  EXPECT_TRUE(t.predict(3));
}

TEST(Predictors, FactoryRejectsUnknownKind) {
  EXPECT_THROW(make_predictor("magic"), liberty::ElaborationError);
}

TEST(Predictors, BtbRemembersTargets) {
  Btb btb(16);
  std::uint64_t t = 0;
  EXPECT_FALSE(btb.lookup(5, t));
  btb.insert(5, 42);
  ASSERT_TRUE(btb.lookup(5, t));
  EXPECT_EQ(t, 42u);
  // Collision evicts.
  btb.insert(5 + 16, 99);
  EXPECT_FALSE(btb.lookup(5, t));
}

TEST(Predictors, RasIsAStack) {
  Ras ras(4);
  ras.push(1);
  ras.push(2);
  std::uint64_t a = 0;
  ASSERT_TRUE(ras.pop(a));
  EXPECT_EQ(a, 2u);
  ASSERT_TRUE(ras.pop(a));
  EXPECT_EQ(a, 1u);
  EXPECT_FALSE(ras.pop(a));
}

/// Train `p` on a pseudo-random branch stream over 300 PCs, so its tables
/// hold every counter value.
void train(Predictor& p) {
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    p.update((x >> 33) % 300, ((x >> 20) & 3) != 0);
  }
}

std::vector<liberty::Value> saved(const Predictor& p) {
  liberty::core::StateWriter w;
  p.save(w);
  return std::move(w).take();
}

// Counter tables snapshot 32 two-bit counters per slot (the partial last
// word of a non-multiple-of-32 table included) and load back exactly.
TEST(Predictors, SaveLoadRoundTripIsExactAndPacked) {
  struct Case {
    std::unique_ptr<Predictor> trained;
    std::unique_ptr<Predictor> fresh;
    std::size_t slots;
  };
  std::vector<Case> cases;
  cases.push_back({std::make_unique<BimodalPredictor>(100),
                   std::make_unique<BimodalPredictor>(100), 4});
  cases.push_back({std::make_unique<GSharePredictor>(4096),
                   std::make_unique<GSharePredictor>(4096), 128 + 1});
  cases.push_back({std::make_unique<TournamentPredictor>(1024),
                   std::make_unique<TournamentPredictor>(1024),
                   32 + (128 + 1) + 32});
  for (Case& c : cases) {
    train(*c.trained);
    const std::vector<liberty::Value> slots = saved(*c.trained);
    EXPECT_EQ(slots.size(), c.slots) << c.trained->name();
    liberty::core::StateReader r(slots, c.trained->name());
    c.fresh->load(r);
    EXPECT_TRUE(r.exhausted()) << c.trained->name();
    EXPECT_EQ(liberty::core::digest_slots(saved(*c.fresh)),
              liberty::core::digest_slots(slots))
        << c.trained->name();
    for (std::uint64_t pc = 0; pc < 4096; ++pc) {
      ASSERT_EQ(c.fresh->predict(pc), c.trained->predict(pc))
          << c.trained->name() << " pc " << pc;
    }
  }
}

TEST(Predictors, ChangingOneCounterChangesTheDigest) {
  std::vector<std::uint8_t> table(70);
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = i % 4;
  const auto digest = [](const std::vector<std::uint8_t>& t) {
    liberty::core::StateWriter w(liberty::core::StateWriter::digest_only);
    detail::save_counters(w, t);
    return w.digest();
  };
  const std::uint64_t base = digest(table);
  for (std::size_t i = 0; i < table.size(); ++i) {
    std::vector<std::uint8_t> changed = table;
    changed[i] = (changed[i] + 1) % 4;
    EXPECT_NE(digest(changed), base) << "counter " << i;
  }

  // Through the public interface: one bimodal update moves one counter.
  BimodalPredictor a(64);
  BimodalPredictor b(64);
  b.update(9, true);
  EXPECT_NE(liberty::core::digest_slots(saved(a)),
            liberty::core::digest_slots(saved(b)));
}

// The word-at-a-time pack writes exactly the words of packing one counter
// at a time, for full words, partial tails and tables shorter than a word.
TEST(Predictors, SaveCountersMatchesScalarReference) {
  const auto reference = [](const std::vector<std::uint8_t>& t) {
    std::vector<std::uint64_t> words((t.size() + 31) / 32, 0);
    for (std::size_t i = 0; i < t.size(); ++i) {
      words[i / 32] |= static_cast<std::uint64_t>(t[i] & 3U) << (2 * (i % 32));
    }
    return words;
  };
  std::uint64_t x = 99;
  for (const std::size_t n : {1, 7, 31, 32, 33, 1024, 4101}) {
    std::vector<std::uint8_t> table(n);
    for (auto& c : table) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      c = static_cast<std::uint8_t>((x >> 59) & 3U);
    }
    liberty::core::StateWriter w;
    detail::save_counters(w, table);
    const std::vector<std::uint64_t> want = reference(table);
    ASSERT_EQ(w.slots().size(), want.size()) << "table size " << n;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(static_cast<std::uint64_t>(w.slots()[k].as_int()), want[k])
          << "table size " << n << ", word " << k;
    }
    std::vector<std::uint8_t> back(n, 0);
    liberty::core::StateReader r(w.slots(), "table");
    detail::load_counters(r, back);
    EXPECT_EQ(back, table) << "table size " << n;
  }
}

TEST(Predictors, BtbSaveLoadRoundTrip) {
  Btb btb(16);
  btb.insert(5, 42);
  btb.insert(30, 7);
  liberty::core::StateWriter w;
  btb.save(w);
  EXPECT_EQ(w.slots().size(), 1u + 2 * 3);  // count, then valid entries
  Btb back(16);
  back.insert(1, 99);  // overwritten by the load
  liberty::core::StateReader r(w.slots(), "btb");
  back.load(r);
  std::uint64_t t = 0;
  ASSERT_TRUE(back.lookup(5, t));
  EXPECT_EQ(t, 42u);
  ASSERT_TRUE(back.lookup(30, t));
  EXPECT_EQ(t, 7u);
  EXPECT_FALSE(back.lookup(1, t));
}

// ---------------------------------------------------------------------------
// CacheModel
// ---------------------------------------------------------------------------

TEST(CacheModelTest, HitAfterFill) {
  CacheModel c(4, 2, 4, CacheModel::Replacement::Lru);
  EXPECT_EQ(c.lookup(100), nullptr);
  auto& way = c.victim(100);
  c.fill(way, 100, false);
  EXPECT_NE(c.lookup(100), nullptr);
  EXPECT_NE(c.lookup(103), nullptr);  // same line (line_words = 4, base 100)
  EXPECT_EQ(c.lookup(104), nullptr);  // next line
}

TEST(CacheModelTest, LruEvictsLeastRecentlyUsed) {
  CacheModel c(1, 2, 1, CacheModel::Replacement::Lru);
  c.fill(c.victim(0), 0, false);
  c.fill(c.victim(1), 1, false);
  (void)c.lookup(0);  // touch 0: now 1 is LRU
  auto& v = c.victim(2);
  EXPECT_EQ(v.tag, c.tag_of(1));
}

TEST(CacheModelTest, InvalidateRemovesLine) {
  CacheModel c(4, 2, 4, CacheModel::Replacement::Lru);
  c.fill(c.victim(40), 40, true);
  EXPECT_TRUE(c.invalidate(40));
  EXPECT_EQ(c.lookup(40), nullptr);
  EXPECT_FALSE(c.invalidate(40));
}

TEST(CacheModelTest, AddrOfInvertsMapping) {
  CacheModel c(8, 4, 4, CacheModel::Replacement::Lru);
  const std::uint64_t addr = 1236;  // arbitrary
  auto& way = c.victim(addr);
  c.fill(way, addr, false);
  EXPECT_EQ(c.addr_of(way, c.set_of(addr)), c.line_addr(addr));
}

TEST(CacheModelTest, GeometryValidation) {
  EXPECT_THROW(CacheModel(0, 1, 1, CacheModel::Replacement::Lru),
               liberty::ElaborationError);
}

std::uint64_t digest_of(const CacheModel& c) {
  liberty::core::StateWriter w(liberty::core::StateWriter::digest_only);
  c.save(w);
  return w.digest();
}

std::vector<liberty::Value> saved(const CacheModel& c) {
  liberty::core::StateWriter w;
  c.save(w);
  return std::move(w).take();
}

/// Two lines in set 0 of a 4-set, 2-way, 4-word LRU cache plus one in
/// set 1, then the second set-0 line invalidated.
void warm(CacheModel& c) {
  c.fill(c.victim(0), 0, false);
  c.fill(c.victim(16), 16, true);
  c.fill(c.victim(4), 4, false);
  c.lookup(0)->meta = 2;
  ASSERT_TRUE(c.invalidate(16));
}

/// Run one access stream; record each miss's victim (its line address,
/// or ~0 for an invalid way).
std::vector<std::uint64_t> victims(CacheModel& c) {
  std::vector<std::uint64_t> out;
  for (const std::uint64_t addr : {32, 48, 0, 64, 20, 36, 80, 4, 96}) {
    if (c.lookup(addr) != nullptr) continue;
    CacheModel::Line& way = c.victim(addr);
    out.push_back(way.valid ? c.addr_of(way, c.set_of(addr)) : ~0ULL);
    c.fill(way, addr, false);
  }
  return out;
}

// An invalid way's tag, stamp and meta are dead state: they neither move
// the digest nor, after a save/load round trip, change a victim choice.
TEST(CacheModelTest, InvalidWaysAreNotState) {
  CacheModel a(4, 2, 4, CacheModel::Replacement::Lru);
  CacheModel b(4, 2, 4, CacheModel::Replacement::Lru);
  warm(a);
  warm(b);
  CacheModel::Line& dead = b.victim(16);  // the invalidated way
  ASSERT_FALSE(dead.valid);
  dead.tag = 99;
  dead.stamp = 12345;
  dead.meta = 2;
  EXPECT_EQ(digest_of(a), digest_of(b));
  EXPECT_EQ(saved(a).size(), 5u + 1 + 2 * 5);  // clock, rng, count, 2 ways

  CacheModel a2(4, 2, 4, CacheModel::Replacement::Lru);
  CacheModel b2(4, 2, 4, CacheModel::Replacement::Lru);
  const std::vector<liberty::Value> sa = saved(a);
  const std::vector<liberty::Value> sb = saved(b);
  liberty::core::StateReader ra(sa, "a");
  liberty::core::StateReader rb(sb, "b");
  a2.load(ra);
  b2.load(rb);
  EXPECT_TRUE(ra.exhausted());
  EXPECT_TRUE(rb.exhausted());
  EXPECT_EQ(digest_of(a2), digest_of(a));
  EXPECT_EQ(digest_of(b2), digest_of(b));

  // A load replaces every way, including ways valid before it.
  CacheModel used(4, 2, 4, CacheModel::Replacement::Lru);
  used.fill(used.victim(8), 8, true);
  liberty::core::StateReader ru(sa, "used");
  used.load(ru);
  EXPECT_EQ(digest_of(used), digest_of(a));
  const std::vector<std::uint64_t> want = victims(a);
  EXPECT_EQ(victims(b), want);
  EXPECT_EQ(victims(a2), want);
  EXPECT_EQ(victims(b2), want);
  EXPECT_EQ(digest_of(b2), digest_of(a));
}

TEST(CacheModelTest, ValidWayFieldsMoveTheDigest) {
  CacheModel base(4, 2, 4, CacheModel::Replacement::Lru);
  warm(base);
  const std::uint64_t d = digest_of(base);
  const std::vector<void (*)(CacheModel::Line&)> edits = {
      [](CacheModel::Line& l) { l.dirty = !l.dirty; },
      [](CacheModel::Line& l) { l.tag += 1; },
      [](CacheModel::Line& l) { l.stamp += 1; },
      [](CacheModel::Line& l) { l.meta += 1; },
      [](CacheModel::Line& l) { l.valid = false; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    CacheModel c(4, 2, 4, CacheModel::Replacement::Lru);
    warm(c);
    edits[i](*c.lookup(4, /*touch=*/false));
    EXPECT_NE(digest_of(c), d) << "edit " << i;
  }
}

// A cache's saved ways are checked on load: an oversized count, an index
// out of range and a repeated index are refused, never installed.
TEST(CacheModelTest, LoadRejectsMalformedWays) {
  CacheModel src(4, 2, 4, CacheModel::Replacement::Lru);
  warm(src);
  const std::vector<liberty::Value> good = saved(src);
  constexpr std::size_t kCount = 5;  // after the clock and 4 rng words
  ASSERT_EQ(good[kCount].as_int(), 2);
  // The refusal's message, or "" when the slots load.
  const auto refusal = [](const std::vector<liberty::Value>& slots) {
    CacheModel c(4, 2, 4, CacheModel::Replacement::Lru);
    liberty::core::StateReader r(slots, "l1");
    try {
      c.load(r);
    } catch (const liberty::SimulationError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(refusal(good), "");

  std::vector<liberty::Value> oversized = good;
  oversized[kCount] = liberty::Value(std::int64_t{9});  // 8 ways in all
  EXPECT_NE(refusal(oversized).find("9 valid ways saved"), std::string::npos);

  std::vector<liberty::Value> out_of_range = good;
  out_of_range[kCount + 6] = liberty::Value(std::int64_t{8});
  EXPECT_NE(refusal(out_of_range).find("out of range"), std::string::npos);

  std::vector<liberty::Value> negative = good;
  negative[kCount + 1] = liberty::Value(std::int64_t{-1});
  EXPECT_NE(refusal(negative).find("out of range"), std::string::npos);

  std::vector<liberty::Value> repeated = good;
  repeated[kCount + 6] = good[kCount + 1];
  EXPECT_NE(refusal(repeated).find("strictly increasing"), std::string::npos);
  EXPECT_NE(refusal(repeated).find("'l1'"), std::string::npos);

  std::vector<liberty::Value> descending = good;
  std::swap(descending[kCount + 1], descending[kCount + 6]);
  EXPECT_NE(refusal(descending).find("strictly increasing"),
            std::string::npos);
}

}  // namespace
