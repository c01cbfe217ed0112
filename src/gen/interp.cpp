// Threaded-code interpreter for the compiled backend's bytecode.
//
// On GNU-compatible compilers exec() uses computed goto: every opcode body
// ends by indexing a label table with the next instruction's opcode and
// jumping straight to it, so the dispatch branch is distributed across the
// opcode bodies (one indirect jump each, separately predicted) instead of
// funneling through a single switch at the loop head.  Elsewhere the same
// bodies compile as a conventional switch loop; VM_CASE/VM_NEXT abstract
// the difference so there is exactly one definition per opcode.
//
// The devirtualized bodies call hooks as static_cast<T&>(m).T::hook() —
// direct calls the compiler can inline — which is sound because lowering
// emitted the opcode only after an exact typeid match.
#include "devirt.hpp"
#include "liberty/gen/compiled_scheduler.hpp"

namespace liberty::gen {

namespace core = liberty::core;

namespace {

// Devirtualized react: same bookkeeping as SchedulerBase::call_react, minus
// the quarantine test (lowering never emits a react opcode for a
// quarantined driver) and the virtual dispatch.  The profiled path must
// stay virtual — timed_react attributes by module, not by static type.
template <typename T>
inline void react_as(core::detail::ResolveCtx& ctx, core::Module& m) {
  ++ctx.reacts;
  if (ctx.timing) {
    core::detail::timed_react(m, ctx);
  } else {
    static_cast<T&>(m).T::react();
  }
}

}  // namespace

void CompiledScheduler::start_phase() { exec(program_.start); }

void CompiledScheduler::resolve_cycle() {
  exec(program_.resolve);
  finish_resolve();
}

void CompiledScheduler::update_phase() { exec(program_.commit); }

void CompiledScheduler::exec(const std::vector<Instr>& tape) {
  core::Module* const* const mods = module_tape_.data();
  core::Connection* const* const conns = conn_tape_.data();
  const core::Cycle cycle = cycle_;
  const Instr* pc = tape.data();

#if defined(__GNUC__) || defined(__clang__)
#define VM_CASE(name) vm_##name:
#define VM_NEXT()                                                \
  do {                                                           \
    ++pc;                                                        \
    goto* kDispatch[static_cast<std::size_t>(pc->op)];           \
  } while (0)
#define VM_END()
  // Label table, in exact Op enum order (the X-macro lists keep it so).
  static const void* const kDispatch[] = {
#define VM_ADDR(K) &&vm_Start##K,
      LIBERTY_GEN_START_KINDS(VM_ADDR)
#undef VM_ADDR
      &&vm_StartVirtual,
      &&vm_RunScc,
      &&vm_Chain,
      &&vm_AutoAck,
      &&vm_DefFwd,
      &&vm_DefBwd,
#define VM_ADDR(K) &&vm_Fwd##K,
      LIBERTY_GEN_REACT_KINDS(VM_ADDR)
#undef VM_ADDR
      &&vm_FwdVirtual,
#define VM_ADDR(K) &&vm_Bwd##K,
      LIBERTY_GEN_REACT_KINDS(VM_ADDR)
#undef VM_ADDR
      &&vm_BwdVirtual,
#define VM_ADDR(K) &&vm_End##K,
      LIBERTY_GEN_COMMIT_KINDS(VM_ADDR)
#undef VM_ADDR
      &&vm_EndVirtual,
      &&vm_Halt,
  };
  goto* kDispatch[static_cast<std::size_t>(pc->op)];
#else
#define VM_CASE(name) case Op::name:
#define VM_NEXT()  \
  do {             \
    ++pc;          \
    goto vm_loop;  \
  } while (0)
#define VM_END() }
vm_loop:
  switch (pc->op) {
#endif

  // ---- start phase ------------------------------------------------------
#define VM_START_OP(K)                                           \
  VM_CASE(Start##K) {                                            \
    static_cast<LIBERTY_GEN_TYPE(K)&>(*mods[pc->a])              \
        .LIBERTY_GEN_TYPE(K)::cycle_start(cycle);                \
  }                                                              \
  VM_NEXT();
  LIBERTY_GEN_START_KINDS(VM_START_OP)
#undef VM_START_OP

  VM_CASE(StartVirtual) { mods[pc->a]->cycle_start(cycle); }
  VM_NEXT();

  // ---- resolve phase ----------------------------------------------------
  VM_CASE(RunScc) { run_scc(pc->a); }
  VM_NEXT();

  VM_CASE(Chain) {
    run_chain(pc->a);
    // Defensive, exactly like execute_node: topological order guarantees
    // the chain's upstream end was known, so the sweep resolved pc->b.
    if (!node_resolved(pc->b)) execute_node(pc->b);
  }
  VM_NEXT();

  VM_CASE(AutoAck) {
    core::Connection& c = *conns[pc->a];
    if (!c.ack_known() && c.forward_known()) apply_auto_accept(c);
  }
  VM_NEXT();

  VM_CASE(DefFwd) { default_forward(*conns[pc->a]); }
  VM_NEXT();

  VM_CASE(DefBwd) { default_backward(*conns[pc->a]); }
  VM_NEXT();

#define VM_FWD_OP(K)                                             \
  VM_CASE(Fwd##K) {                                              \
    core::Connection& c = *conns[pc->b];                         \
    if (!c.forward_known()) {                                    \
      react_as<LIBERTY_GEN_TYPE(K)>(ctx_, *mods[pc->a]);         \
      if (!c.forward_known()) default_forward(c);                \
    }                                                            \
  }                                                              \
  VM_NEXT();
  LIBERTY_GEN_REACT_KINDS(VM_FWD_OP)
#undef VM_FWD_OP

  VM_CASE(FwdVirtual) {
    core::Connection& c = *conns[pc->b];
    if (!c.forward_known()) {
      call_react(*mods[pc->a]);
      if (!c.forward_known()) default_forward(c);
    }
  }
  VM_NEXT();

#define VM_BWD_OP(K)                                             \
  VM_CASE(Bwd##K) {                                              \
    core::Connection& c = *conns[pc->b];                         \
    if (!c.ack_known()) {                                        \
      react_as<LIBERTY_GEN_TYPE(K)>(ctx_, *mods[pc->a]);         \
      if (!c.ack_known()) default_backward(c);                   \
    }                                                            \
  }                                                              \
  VM_NEXT();
  LIBERTY_GEN_REACT_KINDS(VM_BWD_OP)
#undef VM_BWD_OP

  VM_CASE(BwdVirtual) {
    core::Connection& c = *conns[pc->b];
    if (!c.ack_known()) {
      call_react(*mods[pc->a]);
      if (!c.ack_known()) default_backward(c);
    }
  }
  VM_NEXT();

  // ---- commit phase -----------------------------------------------------
#define VM_END_OP(K)                                             \
  VM_CASE(End##K) {                                              \
    static_cast<LIBERTY_GEN_TYPE(K)&>(*mods[pc->a])              \
        .LIBERTY_GEN_TYPE(K)::end_of_cycle();                    \
  }                                                              \
  VM_NEXT();
  LIBERTY_GEN_COMMIT_KINDS(VM_END_OP)
#undef VM_END_OP

  VM_CASE(EndVirtual) { mods[pc->a]->end_of_cycle(); }
  VM_NEXT();

  VM_CASE(Halt) { return; }

  VM_END()

#undef VM_CASE
#undef VM_NEXT
#undef VM_END
}

}  // namespace liberty::gen
