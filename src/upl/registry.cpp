#include <typeindex>

#include "liberty/core/checkpoint.hpp"
#include "liberty/upl/upl.hpp"

namespace liberty::upl {

using liberty::core::ByteReader;
using liberty::core::ByteWriter;
using liberty::core::ModuleRegistry;
using liberty::core::simple_factory;

namespace {

void put_words(ByteWriter& w, const std::vector<std::int64_t>& words) {
  w.put_u32(static_cast<std::uint32_t>(words.size()));
  for (const std::int64_t x : words) w.put_i64(x);
}

std::vector<std::int64_t> get_words(ByteReader& r) {
  const std::uint32_t n = r.get_count(8, "word");
  std::vector<std::int64_t> words;
  words.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) words.push_back(r.get_i64());
  return words;
}

void register_payload_codecs() {
  core::register_payload_codec(
      "upl.linereq", std::type_index(typeid(LineReq)),
      [](const Payload& p, ByteWriter& w) {
        const auto& q = static_cast<const LineReq&>(p);
        w.put_u8(static_cast<std::uint8_t>(q.kind));
        w.put_u64(q.line);
        w.put_u64(q.tag);
        w.put_u64(q.requester);
        put_words(w, q.words);
      },
      [](ByteReader& r) {
        const auto kind = static_cast<LineReq::Kind>(r.get_u8());
        const std::uint64_t line = r.get_u64();
        const std::uint64_t tag = r.get_u64();
        const auto requester = static_cast<std::size_t>(r.get_u64());
        std::vector<std::int64_t> words = get_words(r);
        return Value::make<LineReq>(kind, line, tag, requester,
                                    std::move(words));
      });
  core::register_payload_codec(
      "upl.lineresp", std::type_index(typeid(LineResp)),
      [](const Payload& p, ByteWriter& w) {
        const auto& q = static_cast<const LineResp&>(p);
        w.put_u64(q.line);
        w.put_u64(q.tag);
        w.put_u64(q.requester);
        put_words(w, q.words);
        w.put_u8(q.exclusive ? 1 : 0);
      },
      [](ByteReader& r) {
        const std::uint64_t line = r.get_u64();
        const std::uint64_t tag = r.get_u64();
        const auto requester = static_cast<std::size_t>(r.get_u64());
        std::vector<std::int64_t> words = get_words(r);
        const bool exclusive = r.get_u8() != 0;
        return Value::make<LineResp>(line, tag, requester, std::move(words),
                                     exclusive);
      });
  core::register_payload_codec(
      "upl.instr", std::type_index(typeid(InstrToken)),
      [](const Payload& p, ByteWriter& w) {
        const auto& t = static_cast<const InstrToken&>(p);
        w.put_u64(t.pc);
        w.put_u64(t.seq);
        w.put_u64(t.epoch);
        w.put_u8(static_cast<std::uint8_t>(t.instr.op));
        w.put_u8(t.instr.rd);
        w.put_u8(t.instr.rs1);
        w.put_u8(t.instr.rs2);
        w.put_i64(t.instr.imm);
        w.put_u8(t.pred_taken ? 1 : 0);
        w.put_u64(t.pred_target);
        w.put_i64(t.a);
        w.put_i64(t.b);
        w.put_i64(t.result.value);
        w.put_u64(t.result.mem_addr);
        w.put_u8(t.result.taken ? 1 : 0);
        w.put_u64(t.result.target);
        w.put_u8(t.result.writes_reg ? 1 : 0);
        w.put_u8(t.result.halts ? 1 : 0);
        w.put_u8(t.result.out.has_value() ? 1 : 0);
        if (t.result.out.has_value()) w.put_i64(*t.result.out);
      },
      [](ByteReader& r) {
        auto t = std::make_shared<InstrToken>();
        t->pc = r.get_u64();
        t->seq = r.get_u64();
        t->epoch = r.get_u64();
        t->instr.op = static_cast<Op>(r.get_u8());
        t->instr.rd = r.get_u8();
        t->instr.rs1 = r.get_u8();
        t->instr.rs2 = r.get_u8();
        t->instr.imm = r.get_i64();
        t->pred_taken = r.get_u8() != 0;
        t->pred_target = r.get_u64();
        t->a = r.get_i64();
        t->b = r.get_i64();
        t->result.value = r.get_i64();
        t->result.mem_addr = r.get_u64();
        t->result.taken = r.get_u8() != 0;
        t->result.target = r.get_u64();
        t->result.writes_reg = r.get_u8() != 0;
        t->result.halts = r.get_u8() != 0;
        if (r.get_u8() != 0) t->result.out = r.get_i64();
        return Value(std::shared_ptr<const Payload>(std::move(t)));
      });
  core::register_payload_codec(
      "upl.resolution", std::type_index(typeid(Resolution)),
      [](const Payload& p, ByteWriter& w) {
        const auto& q = static_cast<const Resolution&>(p);
        w.put_u64(q.branch_pc);
        w.put_u64(q.branch_seq);
        w.put_u8(q.taken ? 1 : 0);
        w.put_u64(q.target);
        w.put_u8(q.mispredicted ? 1 : 0);
        w.put_u8(q.is_conditional ? 1 : 0);
      },
      [](ByteReader& r) {
        auto q = std::make_shared<Resolution>();
        q->branch_pc = r.get_u64();
        q->branch_seq = r.get_u64();
        q->taken = r.get_u8() != 0;
        q->target = r.get_u64();
        q->mispredicted = r.get_u8() != 0;
        q->is_conditional = r.get_u8() != 0;
        return Value(std::shared_ptr<const Payload>(std::move(q)));
      });
}

}  // namespace

void register_upl(ModuleRegistry& r) {
  register_payload_codecs();
  r.register_template("upl.fetch", "pipeline fetch stage with prediction",
                      simple_factory<FetchStage>());
  r.register_template("upl.decode", "pipeline decode stage (scoreboard)",
                      simple_factory<DecodeStage>());
  r.register_template("upl.execute", "pipeline execute stage",
                      simple_factory<ExecuteStage>());
  r.register_template("upl.mem", "pipeline memory stage",
                      simple_factory<MemStage>());
  r.register_template("upl.writeback", "pipeline writeback stage",
                      simple_factory<WritebackStage>());
  r.register_template("upl.simple_cpu", "behavioral CPU with memory port",
                      simple_factory<SimpleCpu>());
  r.register_template("upl.ooo_core", "trace-driven out-of-order core",
                      simple_factory<OoOCore>());
  r.register_template("upl.cache", "set-associative cache",
                      simple_factory<CacheModule>());
  r.register_template("upl.memctl", "line-protocol memory controller",
                      simple_factory<MemoryCtl>());
}

}  // namespace liberty::upl
