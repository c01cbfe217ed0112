// Disassembler for the compiled backend (lss_run --dump-bytecode, golden
// tests).  One instruction per line with symbolic operands: module names
// for hook opcodes, connection descriptions for channel opcodes, so a
// listing is meaningful without the netlist at hand.
#include <cstdio>
#include <string>

#include "liberty/core/netlist.hpp"
#include "liberty/gen/compiled_scheduler.hpp"

namespace liberty::gen {

namespace core = liberty::core;

const char* op_name(Op op) noexcept {
  switch (op) {
#define LIBERTY_GEN_NAME(K) \
  case Op::Start##K:        \
    return "Start" #K;
    LIBERTY_GEN_START_KINDS(LIBERTY_GEN_NAME)
#undef LIBERTY_GEN_NAME
    case Op::StartVirtual:
      return "StartVirtual";
    case Op::RunScc:
      return "RunScc";
    case Op::Chain:
      return "Chain";
    case Op::AutoAck:
      return "AutoAck";
    case Op::DefFwd:
      return "DefFwd";
    case Op::DefBwd:
      return "DefBwd";
#define LIBERTY_GEN_NAME(K) \
  case Op::Fwd##K:          \
    return "Fwd" #K;
    LIBERTY_GEN_REACT_KINDS(LIBERTY_GEN_NAME)
#undef LIBERTY_GEN_NAME
    case Op::FwdVirtual:
      return "FwdVirtual";
#define LIBERTY_GEN_NAME(K) \
  case Op::Bwd##K:          \
    return "Bwd" #K;
    LIBERTY_GEN_REACT_KINDS(LIBERTY_GEN_NAME)
#undef LIBERTY_GEN_NAME
    case Op::BwdVirtual:
      return "BwdVirtual";
#define LIBERTY_GEN_NAME(K) \
  case Op::End##K:          \
    return "End" #K;
    LIBERTY_GEN_COMMIT_KINDS(LIBERTY_GEN_NAME)
#undef LIBERTY_GEN_NAME
    case Op::EndVirtual:
      return "EndVirtual";
    case Op::Halt:
      return "Halt";
  }
  return "?";
}

namespace {

enum class Operands { Module, ModuleConn, Conn, Scc, Chain, None };

Operands operands_of(Op op) {
  switch (op) {
    case Op::RunScc:
      return Operands::Scc;
    case Op::Chain:
      return Operands::Chain;
    case Op::AutoAck:
    case Op::DefFwd:
    case Op::DefBwd:
      return Operands::Conn;
    case Op::FwdVirtual:
    case Op::BwdVirtual:
      return Operands::ModuleConn;
    case Op::Halt:
      return Operands::None;
    default:
      break;
  }
#define LIBERTY_GEN_MC(K) \
  if (op == Op::Fwd##K || op == Op::Bwd##K) return Operands::ModuleConn;
  LIBERTY_GEN_REACT_KINDS(LIBERTY_GEN_MC)
#undef LIBERTY_GEN_MC
  return Operands::Module;  // every remaining opcode names one module
}

}  // namespace

std::string CompiledScheduler::disassemble() const {
  std::string out;
  const auto& modules = netlist_.modules();
  const auto& conns = netlist_.connections();

  auto dump_tape = [&](const char* title, const std::vector<Instr>& tape) {
    out += "== ";
    out += title;
    out += " (";
    out += std::to_string(tape.size() - 1);
    out += " ops) ==\n";
    char buf[64];
    for (std::size_t i = 0; i < tape.size(); ++i) {
      const Instr& in = tape[i];
      std::snprintf(buf, sizeof buf, "  %04zu  %-14s", i, op_name(in.op));
      out += buf;
      switch (operands_of(in.op)) {
        case Operands::Module:
          out += "  ";
          out += modules[in.a]->name();
          break;
        case Operands::ModuleConn:
          out += "  ";
          out += modules[in.a]->name();
          out += "  [";
          out += conns[in.b]->describe();
          out += "]";
          break;
        case Operands::Conn:
          out += "  [";
          out += conns[in.a]->describe();
          out += "]";
          break;
        case Operands::Scc:
          std::snprintf(buf, sizeof buf, "  scc=%u", in.a);
          out += buf;
          break;
        case Operands::Chain:
          std::snprintf(buf, sizeof buf, "  chain=%u ch=%u", in.a, in.b);
          out += buf;
          break;
        case Operands::None:
          break;
      }
      out += '\n';
    }
  };

  dump_tape("start", program_.start);
  dump_tape("resolve", program_.resolve);
  dump_tape("commit", program_.commit);
  return out;
}

}  // namespace liberty::gen
