#include "liberty/upl/pipeline.hpp"

#include <map>

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::upl {

using liberty::core::AckMode;
using liberty::core::bwd;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::fwd;
using liberty::core::Netlist;
using liberty::core::Params;
using liberty::pcl::MemReq;
using liberty::pcl::MemResp;

namespace {

/// Does this instruction architecturally write rd?
bool writes_rd(const Instr& i) {
  if (i.rd == 0) return false;
  if (is_alu(i.op) || i.op == Op::Lw) return true;
  return i.op == Op::Jal || i.op == Op::Jalr;
}

/// Does this instruction read rs2?
bool reads_rs2(const Instr& i) {
  switch (i.op) {
    case Op::Add: case Op::Sub: case Op::Mul: case Op::Div: case Op::Rem:
    case Op::And: case Op::Or: case Op::Xor: case Op::Sll: case Op::Srl:
    case Op::Sra: case Op::Slt:
    case Op::Sw:
    case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
      return true;
    default:
      return false;
  }
}

bool reads_rs1(const Instr& i) {
  switch (i.op) {
    case Op::Halt: case Op::Nop: case Op::Jal:
      return false;
    default:
      return true;
  }
}

std::shared_ptr<InstrToken> clone(const InstrToken& t) {
  return std::make_shared<InstrToken>(t);
}

}  // namespace

// ---------------------------------------------------------------------------
// CoreHub
// ---------------------------------------------------------------------------

namespace {
std::map<std::string, std::shared_ptr<CoreState>>& hub_map() {
  static std::map<std::string, std::shared_ptr<CoreState>> m;
  return m;
}
}  // namespace

std::shared_ptr<CoreState> CoreHub::get(const std::string& core_name) {
  auto& m = hub_map();
  auto it = m.find(core_name);
  if (it == m.end()) {
    it = m.emplace(core_name, std::make_shared<CoreState>()).first;
  }
  return it->second;
}

void CoreHub::reset() { hub_map().clear(); }

// ---------------------------------------------------------------------------
// StageBase
// ---------------------------------------------------------------------------

namespace detail {

StageBase::StageBase(const std::string& name, const Params& params,
                     bool has_in, bool has_out)
    : Module(name) {
  if (has_in) in_ = &add_in("in", AckMode::Managed, 0, 1);
  if (has_out) out_ = &add_out("out", 0, 1);
  const std::string core = params.get_string("core", "");
  if (!core.empty()) state_ = CoreHub::get(core);
}

void StageBase::init() {
  if (!state_) {
    throw liberty::ElaborationError(
        "pipeline stage '" + name() +
        "' has no core state: set the 'core' parameter or use "
        "build_inorder_core()");
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// FetchStage
// ---------------------------------------------------------------------------

FetchStage::FetchStage(const std::string& name, const Params& params)
    : StageBase(name, params, /*has_in=*/false, /*has_out=*/true),
      resolve_(add_in("resolve", AckMode::AutoAccept, 0, 1)),
      pred_(make_predictor(params.get_string("predictor", "bimodal"),
                           params.get_size("predictor_entries", 1024))),
      btb_(params.get_size("btb_entries", 512)) {
  program_src_ = params.get_string("program", "");
}

void FetchStage::init() {
  StageBase::init();
  if (!program_src_.empty() && state_->program.code.empty()) {
    state_->program = assemble(program_src_, name() + ":program");
  }
}

liberty::Value FetchStage::make_token() {
  static const Instr kHalt{Op::Halt, 0, 0, 0, 0};
  const Instr& i = pc_ < state_->program.code.size()
                       ? state_->program.code[pc_]
                       : kHalt;
  auto tok = std::make_shared<InstrToken>();
  tok->pc = pc_;
  tok->seq = next_seq_++;
  tok->epoch = state_->epoch;
  tok->instr = i;

  std::uint64_t next = pc_ + 1;
  switch (i.op) {
    case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge: {
      const bool dir = pred_->predict(pc_);
      tok->pred_taken = dir;
      tok->pred_target = static_cast<std::uint64_t>(i.imm);
      if (dir) next = tok->pred_target;
      break;
    }
    case Op::Jal:
      tok->pred_taken = true;
      tok->pred_target = static_cast<std::uint64_t>(i.imm);
      next = tok->pred_target;
      break;
    case Op::Jalr: {
      std::uint64_t t;
      if (btb_.lookup(pc_, t)) {
        tok->pred_taken = true;
        tok->pred_target = t;
        next = t;
      } else {
        tok->pred_taken = false;
        tok->pred_target = pc_ + 1;
      }
      break;
    }
    case Op::Halt:
      stalled_on_halt_ = true;  // fetch no further until a squash
      break;
    default:
      break;
  }
  pc_ = next;
  stats().counter("fetched").inc();
  return liberty::Value(std::static_pointer_cast<const Payload>(
      std::shared_ptr<const InstrToken>(std::move(tok))));
}

void FetchStage::cycle_start(Cycle) {
  if (state_->redirect) {
    pc_ = *state_->redirect;
    state_->redirect.reset();
    slot_.reset();             // wrong-path fetch in the slot, if any
    stalled_on_halt_ = false;  // a wrong-path HALT no longer blocks us
  }
  if (!slot_ && !state_->halted && !stalled_on_halt_) slot_ = make_token();
  if (slot_) {
    out_->send(*slot_);
  } else {
    out_->idle();
  }
}

void FetchStage::end_of_cycle() {
  if (out_->transferred()) slot_.reset();
  if (!resolve_.transferred()) return;
  const auto r = resolve_.data().as<Resolution>();
  if (r->is_conditional) {
    pred_->update(r->branch_pc, r->taken);
    stats().counter(r->mispredicted ? "mispredicts" : "correct_predictions")
        .inc();
  }
  if (r->taken) btb_.insert(r->branch_pc, r->target);
  // The redirect itself was applied via CoreState::redirect at the top of
  // the cycle after the squash; here we only train.
}

void FetchStage::declare_deps(Deps& deps) const {
  deps.state_only(*out_);
}

// ---------------------------------------------------------------------------
// DecodeStage
// ---------------------------------------------------------------------------

DecodeStage::DecodeStage(const std::string& name, const Params& params)
    : StageBase(name, params, true, true) {}

void DecodeStage::cycle_start(Cycle) {
  if (held_) {
    out_->send(*held_);
  } else {
    out_->idle();
  }
}

void DecodeStage::react() {
  if (in_->ack_driven() || !in_->forward_known()) return;
  if (!in_->has_data()) {
    in_->nack();
    return;
  }
  const auto tok = in_->data().as<InstrToken>();
  if (tok->epoch != state_->epoch) {
    in_->ack();  // swallow and discard the wrong-path instruction
    return;
  }
  // Scoreboard interlock: stall while sources or destination are busy.
  const Instr& i = tok->instr;
  const bool hazard = (reads_rs1(i) && state_->reg_busy(i.rs1)) ||
                      (reads_rs2(i) && state_->reg_busy(i.rs2)) ||
                      (writes_rd(i) && state_->reg_busy(i.rd));
  if (hazard) {
    stats().counter("hazard_stalls").inc();
    in_->nack();
    return;
  }
  // Accept once our slot is (or becomes) free.
  if (!held_) {
    in_->ack();
  } else if (out_->ack_known()) {
    if (out_->acked()) {
      in_->ack();
    } else {
      in_->nack();
    }
  }
}

void DecodeStage::end_of_cycle() {
  if (out_->transferred()) held_.reset();
  if (!in_->transferred()) return;
  const auto tok = in_->data().as<InstrToken>();
  if (tok->epoch != state_->epoch) {
    ++state_->squashed;
    return;
  }
  auto dec = clone(*tok);
  dec->a = state_->regs[tok->instr.rs1];
  dec->b = state_->regs[tok->instr.rs2];
  if (writes_rd(tok->instr)) state_->mark_busy(tok->instr.rd, tok->seq);
  held_ = liberty::Value(std::static_pointer_cast<const Payload>(
      std::shared_ptr<const InstrToken>(std::move(dec))));
  stats().counter("decoded").inc();
}

void DecodeStage::declare_deps(Deps& deps) const {
  deps.state_only(*out_);
  deps.depends(*in_, {fwd(*in_), bwd(*out_)});
}

// ---------------------------------------------------------------------------
// ExecuteStage
// ---------------------------------------------------------------------------

ExecuteStage::ExecuteStage(const std::string& name, const Params& params)
    : StageBase(name, params, true, true),
      resolve_(add_out("resolve", 0, 1)),
      mul_latency_(static_cast<std::uint64_t>(params.get_int("mul_latency", 3))),
      div_latency_(
          static_cast<std::uint64_t>(params.get_int("div_latency", 12))) {}

void ExecuteStage::cycle_start(Cycle c) {
  if (held_ && c >= ready_) {
    out_->send(*held_);
  } else {
    out_->idle();
  }
  if (resolution_) {
    resolve_.send(*resolution_);
  } else {
    resolve_.idle();
  }
}

void ExecuteStage::react() {
  if (in_->ack_driven() || !in_->forward_known()) return;
  if (!in_->has_data()) {
    in_->nack();
    return;
  }
  const auto tok = in_->data().as<InstrToken>();
  if (tok->epoch != state_->epoch) {
    in_->ack();  // swallow wrong-path work
    return;
  }
  if (resolution_) {
    in_->nack();  // one branch resolution in flight at a time
    return;
  }
  if (!held_) {
    in_->ack();
  } else if (out_->sent() && out_->ack_known()) {
    if (out_->acked()) {
      in_->ack();
    } else {
      in_->nack();
    }
  } else if (now() < ready_) {
    in_->nack();  // multi-cycle op still executing
  }
}

void ExecuteStage::end_of_cycle() {
  if (out_->transferred()) held_.reset();
  if (resolve_.transferred()) resolution_.reset();
  if (!in_->transferred()) return;
  const auto tok = in_->data().as<InstrToken>();
  if (tok->epoch != state_->epoch) {
    ++state_->squashed;
    return;
  }

  auto ex = clone(*tok);
  ex->result = evaluate(tok->instr, tok->a, tok->b, tok->pc);
  std::uint64_t latency = 1;
  if (tok->instr.op == Op::Mul) latency = mul_latency_;
  if (tok->instr.op == Op::Div || tok->instr.op == Op::Rem) {
    latency = div_latency_;
  }
  ready_ = now() + latency;
  stats().counter("executed").inc();

  if (is_branch(tok->instr.op)) {
    const std::uint64_t actual_next =
        ex->result.taken ? ex->result.target : tok->pc + 1;
    const std::uint64_t predicted_next =
        tok->pred_taken ? tok->pred_target : tok->pc + 1;
    auto res = std::make_shared<Resolution>();
    res->branch_pc = tok->pc;
    res->branch_seq = tok->seq;
    res->taken = ex->result.taken;
    res->target = actual_next;
    res->mispredicted = actual_next != predicted_next;
    res->is_conditional = tok->instr.op != Op::Jal &&
                          tok->instr.op != Op::Jalr;
    if (res->mispredicted) {
      // Squash immediately: younger in-flight instructions are wrong-path.
      ++state_->epoch;
      state_->squash_after(tok->seq);
      state_->redirect = actual_next;
      stats().counter("squashes").inc();
    }
    resolution_ = liberty::Value(std::static_pointer_cast<const Payload>(
        std::shared_ptr<const Resolution>(std::move(res))));
  }

  held_ = liberty::Value(std::static_pointer_cast<const Payload>(
      std::shared_ptr<const InstrToken>(std::move(ex))));
}

void ExecuteStage::declare_deps(Deps& deps) const {
  deps.state_only(*out_);
  deps.state_only(resolve_);
  deps.depends(*in_, {fwd(*in_), bwd(*out_)});
}

// ---------------------------------------------------------------------------
// MemStage
// ---------------------------------------------------------------------------

MemStage::MemStage(const std::string& name, const Params& params)
    : StageBase(name, params, true, true),
      dreq_(add_out("dreq", 0, 1)),
      dresp_(add_in("dresp", AckMode::Managed, 0, 1)) {}

void MemStage::cycle_start(Cycle) {
  if (held_) {
    out_->send(*held_);
  } else {
    out_->idle();
  }
  if (waiting_ && !req_sent_) {
    dreq_.send(pending_req_);
  } else {
    dreq_.idle();
  }
  // Accept a memory response only when the writeback slot is free.
  if (!held_) {
    dresp_.ack();
  } else {
    dresp_.nack();
  }
}

void MemStage::react() {
  if (in_->ack_driven() || !in_->forward_known()) return;
  if (!in_->has_data()) {
    in_->nack();
    return;
  }
  if (waiting_) {
    in_->nack();  // memory operation in flight blocks the stage
    return;
  }
  if (!held_) {
    in_->ack();
  } else if (out_->ack_known()) {
    if (out_->acked()) {
      in_->ack();
    } else {
      in_->nack();
    }
  }
}

void MemStage::end_of_cycle() {
  if (out_->transferred()) held_.reset();
  if (dreq_.transferred()) req_sent_ = true;

  if (dresp_.transferred()) {
    const auto resp = dresp_.data().as<MemResp>();
    const auto tok = waiting_->as<InstrToken>();
    auto done = clone(*tok);
    if (tok->instr.op == Op::Lw) done->result.value = resp->data;
    held_ = liberty::Value(std::static_pointer_cast<const Payload>(
        std::shared_ptr<const InstrToken>(std::move(done))));
    waiting_.reset();
    req_sent_ = false;
  } else if (waiting_) {
    stats().counter("mem_stall_cycles").inc();
  }

  if (!in_->transferred()) return;
  const auto tok = in_->data().as<InstrToken>();
  if (is_mem(tok->instr.op)) {
    const std::uint64_t tag = next_tag_++;
    pending_req_ =
        tok->instr.op == Op::Lw
            ? liberty::Value::make<MemReq>(MemReq::Op::Read,
                                           tok->result.mem_addr, 0, tag)
            : liberty::Value::make<MemReq>(MemReq::Op::Write,
                                           tok->result.mem_addr,
                                           tok->result.value, tag);
    waiting_ = in_->data();
    req_sent_ = false;
    stats().counter(tok->instr.op == Op::Lw ? "loads" : "stores").inc();
  } else {
    held_ = in_->data();
  }
}

void MemStage::declare_deps(Deps& deps) const {
  deps.state_only(*out_);
  deps.state_only(dreq_);
  deps.state_only(dresp_);
  deps.depends(*in_, {fwd(*in_), bwd(*out_)});
}

// ---------------------------------------------------------------------------
// WritebackStage
// ---------------------------------------------------------------------------

WritebackStage::WritebackStage(const std::string& name, const Params& params)
    : StageBase(name, params, true, /*has_out=*/false),
      stop_on_halt_(params.get_bool("stop_on_halt", true)) {}

void WritebackStage::cycle_start(Cycle) { in_->ack(); }

void WritebackStage::end_of_cycle() {
  if (!in_->transferred()) return;
  const auto tok = in_->data().as<InstrToken>();
  const Instr& i = tok->instr;
  if (writes_rd(i)) {
    state_->regs[i.rd] = tok->result.value;
    state_->clear_busy(i.rd, tok->seq);
  }
  if (tok->result.out) state_->output.push_back(*tok->result.out);
  ++state_->retired;
  stats().counter("retired").inc();
  if (tok->result.halts) {
    state_->halted = true;
    if (stop_on_halt_) request_stop();
  }
}

void WritebackStage::declare_deps(Deps& deps) const {
  deps.state_only(*in_);
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

InorderCore build_inorder_core(Netlist& netlist, const std::string& prefix,
                               const Program& program, const Params& params) {
  InorderCore core;
  core.state = std::make_shared<CoreState>();
  core.state->program = program;

  core.fetch = &netlist.make<FetchStage>(prefix + ".fetch", params);
  core.decode = &netlist.make<DecodeStage>(prefix + ".decode", params);
  core.exec = &netlist.make<ExecuteStage>(prefix + ".exec", params);
  core.mem = &netlist.make<MemStage>(prefix + ".mem", params);
  core.wb = &netlist.make<WritebackStage>(prefix + ".wb", params);

  for (detail::StageBase* s :
       {static_cast<detail::StageBase*>(core.fetch),
        static_cast<detail::StageBase*>(core.decode),
        static_cast<detail::StageBase*>(core.exec),
        static_cast<detail::StageBase*>(core.mem),
        static_cast<detail::StageBase*>(core.wb)}) {
    s->set_state(core.state);
  }

  netlist.connect(core.fetch->out("out"), core.decode->in("in"));
  netlist.connect(core.decode->out("out"), core.exec->in("in"));
  netlist.connect(core.exec->out("out"), core.mem->in("in"));
  netlist.connect(core.mem->out("out"), core.wb->in("in"));
  netlist.connect(core.exec->out("resolve"), core.fetch->in("resolve"));
  return core;
}

}  // namespace liberty::upl
