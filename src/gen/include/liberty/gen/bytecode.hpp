// Bytecode format of the compiled netlist backend (docs/codegen.md).
//
// At elaboration time the lowering pass (lower.cpp) walks the finalized
// netlist, its schedule graph, and the optimizer plan, and emits three flat
// instruction tapes — start (cycle_start phase), resolve (fixed-point phase
// in topological SCC order), commit (end_of_cycle phase) — executed by a
// threaded-code interpreter (interp.cpp, computed-goto dispatch).  This is
// the in-process analogue of LSE's "simulator executable" emission: instead
// of generating C source per netlist, the structure is compiled into a
// register-based bytecode whose operands are dense module/connection ids.
//
// Devirtualization: the stock PCL/CCL module kinds get one opcode group per
// kind, whose bodies invoke the kind's hooks through non-virtual calls
// (static_cast<T&>(m).T::hook()).  Kind matching is by exact typeid, so a
// user subclass of a stock module safely falls back to the CALL_VIRTUAL
// forms (StartVirtual / FwdVirtual / BwdVirtual / EndVirtual).  Stock kinds
// that do not override a hook (the base hook is an empty no-op) lower to no
// instruction at all in that phase.
//
// OptPlan facts are baked in at emit time: constant channels emit nothing
// (SchedulerBase::apply_consts pre-resolves them), elided modules emit
// nothing anywhere, and fused chains emit one Chain instruction per covered
// channel (the sweep is cycle-stamped, so repeats are cheap).
#pragma once

#include <cstdint>
#include <vector>

namespace liberty::gen {

// Devirtualized module kinds per phase.  A kind appears in a list iff the
// class overrides that hook; the lists drive the Op enum, the interpreter's
// dispatch table and opcode bodies, and the disassembler's name table, so
// they must stay consistent (X-macro expansion keeps them so).
#define LIBERTY_GEN_START_KINDS(X)                                   \
  X(Source) X(Queue) X(Delay) X(Arbiter) X(Crossbar) X(Buffer)     \
  X(MemoryArray) X(Router) X(TrafficGen)
#define LIBERTY_GEN_REACT_KINDS(X)                                  \
  X(Queue) X(Arbiter) X(Probe) X(FuncMap) X(Tee) X(Mux) X(Demux) \
  X(Crossbar) X(Router)
#define LIBERTY_GEN_COMMIT_KINDS(X)                                   \
  X(Source) X(Sink) X(Queue) X(Delay) X(Arbiter) X(Probe) X(Tee)   \
  X(Crossbar) X(Buffer) X(MemoryArray) X(Router) X(TrafficGen)     \
  X(TrafficSink)

/// Opcodes.  Operand conventions (see struct Instr):
///   Start<K>, StartVirtual        a = module id
///   RunScc                        a = SCC index (multi-node/self-loop SCCs
///                                     iterate via AnalyzedScheduler::run_scc)
///   Chain                         a = chain index, b = channel id (fused
///                                     sweep; generic fallback if unresolved)
///   AutoAck                       a = connection id (kernel ack := enable)
///   DefFwd / DefBwd               a = connection id (default if undriven)
///   Fwd<K> / Bwd<K>, *Virtual     a = module id, b = connection id
///                                     (react-then-default, devirtualized)
///   End<K>, EndVirtual            a = module id
///   Halt                          end of tape
enum class Op : std::uint8_t {
#define LIBERTY_GEN_OP(K) Start##K,
  LIBERTY_GEN_START_KINDS(LIBERTY_GEN_OP)
#undef LIBERTY_GEN_OP
  StartVirtual,
  RunScc,
  Chain,
  AutoAck,
  DefFwd,
  DefBwd,
#define LIBERTY_GEN_OP(K) Fwd##K,
  LIBERTY_GEN_REACT_KINDS(LIBERTY_GEN_OP)
#undef LIBERTY_GEN_OP
  FwdVirtual,
#define LIBERTY_GEN_OP(K) Bwd##K,
  LIBERTY_GEN_REACT_KINDS(LIBERTY_GEN_OP)
#undef LIBERTY_GEN_OP
  BwdVirtual,
#define LIBERTY_GEN_OP(K) End##K,
  LIBERTY_GEN_COMMIT_KINDS(LIBERTY_GEN_OP)
#undef LIBERTY_GEN_OP
  EndVirtual,
  Halt,
};

[[nodiscard]] const char* op_name(Op op) noexcept;

/// One fixed-size threaded-code instruction.  Operands are indices into the
/// scheduler's dense module/connection tapes (or SCC/chain tables), not
/// pointers — smaller, and the disassembly stays meaningful on its own.
struct Instr {
  Op op = Op::Halt;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// The lowered executable form of one netlist: three Halt-terminated tapes
/// plus lowering statistics (reported as gen.* scheduler counters).
struct Program {
  std::vector<Instr> start;
  std::vector<Instr> resolve;
  std::vector<Instr> commit;
  std::uint64_t devirt_ops = 0;   // devirtualized instructions emitted
  std::uint64_t virtual_ops = 0;  // CALL_VIRTUAL fallbacks emitted
};

}  // namespace liberty::gen
