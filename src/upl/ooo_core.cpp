#include "liberty/upl/ooo_core.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "liberty/support/error.hpp"

namespace liberty::upl {

using liberty::core::Cycle;
using liberty::core::Params;

OoOCore::OoOCore(const std::string& name, const Params& params)
    : Module(name),
      width_(params.get_size("width", 4)),
      window_size_(params.get_size("window", 32)),
      rob_size_(params.get_size("rob", 64)),
      pred_(make_predictor(params.get_string("predictor", "gshare"),
                           params.get_size("predictor_entries", 1024))),
      mispredict_penalty_(static_cast<std::uint64_t>(
          params.get_int("mispredict_penalty", 8))),
      mul_latency_(
          static_cast<std::uint64_t>(params.get_int("mul_latency", 3))),
      div_latency_(
          static_cast<std::uint64_t>(params.get_int("div_latency", 12))),
      load_hit_(static_cast<std::uint64_t>(params.get_int("load_hit", 2))),
      load_miss_(static_cast<std::uint64_t>(params.get_int("load_miss", 40))),
      max_instrs_(
          static_cast<std::uint64_t>(params.get_int("max_instrs", 1000000))),
      stop_on_halt_(params.get_bool("stop_on_halt", true)),
      dcache_(params.get_size("dcache_sets", 64),
              params.get_size("dcache_ways", 4),
              params.get_size("dcache_line", 4),
              replacement_from_string(
                  params.get_string("dcache_replacement", "lru"))) {
  if (width_ == 0 || window_size_ == 0 || rob_size_ == 0) {
    throw liberty::ElaborationError(
        "upl.ooo_core: width/window/rob must be >= 1");
  }
  const std::string source = params.get_string("program", "");
  if (!source.empty()) set_program(assemble(source, name + ".program"));
}

void OoOCore::build_trace() {
  if (!have_program_) {
    throw liberty::SimulationError("upl.ooo_core '" + name() +
                                   "': no program attached");
  }
  ArchState st(prog_);
  while (!st.halted() && trace_.size() < max_instrs_) {
    TraceEntry e;
    e.pc = st.pc();
    e.instr = st.fetch(st.pc());
    const ExecResult r =
        evaluate(e.instr, st.reg(e.instr.rs1), st.reg(e.instr.rs2), st.pc());
    e.taken = r.taken;
    e.mem_addr = r.mem_addr;
    trace_.push_back(e);
    st.step();
  }
  output_ = st.output();
  trace_ready_ = true;
}

void OoOCore::init() { build_trace(); }

std::uint64_t OoOCore::exec_latency(const TraceEntry& e) {
  switch (e.instr.op) {
    case Op::Mul:
      return mul_latency_;
    case Op::Div:
    case Op::Rem:
      return div_latency_;
    case Op::Lw:
    case Op::Sw: {
      if (dcache_.lookup(e.mem_addr) != nullptr) {
        stats().counter("dcache_hits").inc();
        return load_hit_;
      }
      stats().counter("dcache_misses").inc();
      CacheModel::Line& victim = dcache_.victim(e.mem_addr);
      dcache_.fill(victim, e.mem_addr, e.instr.op == Op::Sw);
      return load_miss_;
    }
    default:
      return 1;
  }
}

void OoOCore::do_commit() {
  std::size_t committed = 0;
  while (committed < width_ && !rob_.empty()) {
    const InFlight& head = rob_.front();
    if (!head.issued || head.done > now()) break;
    ++commit_ptr_;
    rob_.pop_front();
    ++committed;
    stats().counter("retired").inc();
  }
}

void OoOCore::do_issue() {
  std::size_t issued = 0;
  for (auto& f : rob_) {
    if (issued >= width_) break;
    if (f.issued) continue;
    const TraceEntry& e = trace_[f.idx];
    // Operand readiness through the register scoreboard.
    std::uint64_t ready = now();
    ready = std::max(ready, reg_ready_[e.instr.rs1]);
    ready = std::max(ready, reg_ready_[e.instr.rs2]);
    // Loads obey earlier stores to the same address.
    if (e.instr.op == Op::Lw) {
      const auto it = store_ready_.find(e.mem_addr);
      if (it != store_ready_.end()) ready = std::max(ready, it->second);
    }
    if (ready > now()) continue;  // not ready: stays in the window
    f.issued = true;
    f.done = now() + exec_latency(e);
    if (e.instr.rd != 0 &&
        (is_alu(e.instr.op) || e.instr.op == Op::Lw ||
         e.instr.op == Op::Jal || e.instr.op == Op::Jalr)) {
      reg_ready_[e.instr.rd] = f.done;
    }
    if (e.instr.op == Op::Sw) store_ready_[e.mem_addr] = f.done;
    if (blocking_branch_ && *blocking_branch_ == f.idx) {
      // Mispredicted branch resolves: frontend refills after the penalty.
      fetch_stalled_until_ = f.done + mispredict_penalty_;
      blocking_branch_.reset();
    }
    ++issued;
  }
}

void OoOCore::do_fetch() {
  if (now() < fetch_stalled_until_ || blocking_branch_) return;
  std::size_t fetched = 0;
  while (fetched < width_ && fetch_ptr_ < trace_.size() &&
         rob_.size() < rob_size_) {
    // Window occupancy = unissued entries.
    std::size_t waiting = 0;
    for (const auto& f : rob_) {
      if (!f.issued) ++waiting;
    }
    if (waiting >= window_size_) {
      stats().counter("window_full_stalls").inc();
      break;
    }
    const TraceEntry& e = trace_[fetch_ptr_];
    rob_.push_back(InFlight{fetch_ptr_, false, 0});
    ++fetched;
    if (is_branch(e.instr.op)) {
      const bool conditional =
          e.instr.op != Op::Jal && e.instr.op != Op::Jalr;
      bool predicted_taken = true;  // jal/jalr assumed BTB-hit
      if (conditional) {
        predicted_taken = pred_->predict(e.pc);
        pred_->update(e.pc, e.taken);
      }
      if (conditional && predicted_taken != e.taken) {
        stats().counter("mispredicts").inc();
        blocking_branch_ = fetch_ptr_;
        ++fetch_ptr_;
        return;  // fetch stops until the branch resolves
      }
      stats().counter("correct_predictions").inc();
    }
    ++fetch_ptr_;
  }
}

void OoOCore::save_state(liberty::core::StateWriter& w) const {
  // trace_ and output_ are rebuilt deterministically by init(); only the
  // machine's progress through the trace is state.
  w.put_size(rob_.size());
  for (const InFlight& f : rob_) {
    w.put_size(f.idx);
    w.put_bool(f.issued);
    w.put_u64(f.done);
  }
  w.put_size(fetch_ptr_);
  w.put_size(commit_ptr_);
  for (const std::uint64_t c : reg_ready_) w.put_u64(c);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stores(
      store_ready_.begin(), store_ready_.end());
  std::sort(stores.begin(), stores.end());
  w.put_size(stores.size());
  for (const auto& [addr, ready] : stores) {
    w.put_u64(addr);
    w.put_u64(ready);
  }
  w.put_u64(fetch_stalled_until_);
  w.put_bool(blocking_branch_.has_value());
  if (blocking_branch_) w.put_size(*blocking_branch_);
  pred_->save(w);
  dcache_.save(w);
}

void OoOCore::load_state(liberty::core::StateReader& r) {
  rob_.clear();
  const std::size_t inflight = r.get_size();
  for (std::size_t i = 0; i < inflight; ++i) {
    InFlight f;
    f.idx = r.get_size();
    f.issued = r.get_bool();
    f.done = r.get_u64();
    rob_.push_back(f);
  }
  fetch_ptr_ = r.get_size();
  commit_ptr_ = r.get_size();
  for (std::uint64_t& c : reg_ready_) c = r.get_u64();
  store_ready_.clear();
  const std::size_t stores = r.get_size();
  for (std::size_t i = 0; i < stores; ++i) {
    const std::uint64_t addr = r.get_u64();
    store_ready_[addr] = r.get_u64();
  }
  fetch_stalled_until_ = r.get_u64();
  blocking_branch_.reset();
  if (r.get_bool()) blocking_branch_ = r.get_size();
  pred_->load(r);
  dcache_.load(r);
}

void OoOCore::end_of_cycle() {
  if (done()) return;
  stats().counter("cycles").inc();
  do_commit();
  do_issue();
  do_fetch();
  std::size_t waiting = 0;
  for (const auto& f : rob_) {
    if (!f.issued) ++waiting;
  }
  stats().accumulator("window_occupancy").add(static_cast<double>(waiting));
  if (done()) {
    stats().counter("done_at").inc(now());
    if (stop_on_halt_) request_stop();
  }
}

}  // namespace liberty::upl
