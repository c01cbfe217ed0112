#include "liberty/upl/simple_cpu.hpp"

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::upl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;
using liberty::pcl::MemReq;
using liberty::pcl::MemResp;

SimpleCpu::SimpleCpu(const std::string& name, const Params& params)
    : Module(name),
      mem_req_(add_out("mem_req", 0, 1)),
      mem_resp_(add_in("mem_resp", AckMode::AutoAccept, 0, 1)),
      stop_on_halt_(params.get_bool("stop_on_halt", false)) {
  const std::string source = params.get_string("program", "");
  if (!source.empty()) set_program(assemble(source, name + ".program"));
}

void SimpleCpu::map_mmio(std::uint64_t base, std::uint64_t size, MmioRead rd,
                         MmioWrite wr) {
  mmio_.push_back(MmioRange{base, size, std::move(rd), std::move(wr)});
}

void SimpleCpu::attach_mmio(std::uint64_t base, std::uint64_t size,
                            liberty::core::MmioDevice& device) {
  map_mmio(
      base, size,
      [base, &device](std::uint64_t addr) {
        return device.mmio_read(addr - base);
      },
      [base, &device](std::uint64_t addr, std::int64_t v) {
        device.mmio_write(addr - base, v);
      });
}

const SimpleCpu::MmioRange* SimpleCpu::mmio_for(std::uint64_t addr) const {
  for (const auto& r : mmio_) {
    if (addr >= r.base && addr < r.base + r.size) return &r;
  }
  return nullptr;
}

void SimpleCpu::cycle_start(Cycle) {
  if (pending_ && !pending_->sent) {
    mem_req_.send(pending_->req);
  } else {
    mem_req_.idle();
  }
}

void SimpleCpu::execute_one() {
  if (!have_program_) {
    throw liberty::SimulationError("upl.simple_cpu '" + name() +
                                   "': no program attached");
  }
  static const Instr kHalt{Op::Halt, 0, 0, 0, 0};
  const Instr& i = pc_ < prog_.code.size() ? prog_.code[pc_] : kHalt;

  if (is_mem(i.op)) {
    const std::uint64_t addr =
        static_cast<std::uint64_t>(regs_[i.rs1] + i.imm);
    // Memory-mapped I/O completes in one cycle, against the device.
    if (const MmioRange* dev = mmio_for(addr)) {
      if (i.op == Op::Lw) {
        set_reg(i.rd, dev->read ? dev->read(addr) : 0);
      } else if (dev->write) {
        dev->write(addr, regs_[i.rs2]);
      }
      ++retired_;
      ++pc_;
      return;
    }
    pending_ = PendingMem{
        i.op == Op::Lw
            ? liberty::Value::make<MemReq>(MemReq::Op::Read, addr, 0,
                                           next_tag_)
            : liberty::Value::make<MemReq>(MemReq::Op::Write, addr,
                                           regs_[i.rs2], next_tag_),
        i, false};
    ++next_tag_;
    return;  // pc advances when the response arrives
  }

  const ExecResult r = evaluate(i, regs_[i.rs1], regs_[i.rs2], pc_);
  if (r.writes_reg) set_reg(i.rd, r.value);
  if (r.out) output_.push_back(*r.out);
  ++retired_;
  if (r.halts) {
    halted_ = true;
    stats().counter("halt_cycle").inc(now());
    if (stop_on_halt_) request_stop();
    return;
  }
  pc_ = r.taken ? r.target : pc_ + 1;
}

void SimpleCpu::end_of_cycle() {
  stats().bind(cycles_stat_, "cycles").inc();
  if (halted_) return;

  if (pending_) {
    if (!pending_->sent && mem_req_.transferred()) pending_->sent = true;
    if (mem_resp_.transferred()) {
      const auto resp = mem_resp_.data().as<MemResp>();
      const Instr& i = pending_->instr;
      if (i.op == Op::Lw) set_reg(i.rd, resp->data);
      pending_.reset();
      ++retired_;
      ++pc_;
      stats().bind(instructions_stat_, "instructions").inc();
    } else {
      stats().bind(mem_stall_cycles_stat_, "mem_stall_cycles").inc();
    }
    return;
  }

  execute_one();
  if (!pending_ && !halted_) {
    stats().bind(instructions_stat_, "instructions").inc();
  }
  if (pending_) stats().bind(mem_ops_stat_, "mem_ops").inc();
}

void SimpleCpu::declare_deps(Deps& deps) const {
  deps.state_only(mem_req_);
}

void SimpleCpu::save_state(liberty::core::StateWriter& w) const {
  for (const std::int64_t r : regs_) w.put_i64(r);
  w.put_u64(pc_);
  w.put_bool(halted_);
  w.put_u64(retired_);
  w.put_u64(next_tag_);
  w.put_size(output_.size());
  for (const std::int64_t v : output_) w.put_i64(v);
  // The pending instruction needs no slot: pc does not advance until the
  // response arrives, so it is re-derived from prog_.code[pc_] on load.
  w.put_bool(pending_.has_value());
  if (pending_) {
    w.put(pending_->req);
    w.put_bool(pending_->sent);
  }
}

void SimpleCpu::load_state(liberty::core::StateReader& r) {
  for (auto& reg : regs_) reg = r.get_i64();
  pc_ = r.get_u64();
  halted_ = r.get_bool();
  retired_ = r.get_u64();
  next_tag_ = r.get_u64();
  output_.clear();
  const std::size_t outs = r.get_size();
  for (std::size_t i = 0; i < outs; ++i) output_.push_back(r.get_i64());
  pending_.reset();
  if (r.get_bool()) {
    liberty::Value req = r.get();
    const bool sent = r.get_bool();
    static const Instr kHalt{Op::Halt, 0, 0, 0, 0};
    const Instr& i = pc_ < prog_.code.size() ? prog_.code[pc_] : kHalt;
    pending_ = PendingMem{std::move(req), i, sent};
  }
}

}  // namespace liberty::upl
