// Lowering: netlist + schedule graph + optimizer plan -> bytecode tapes.
//
// The emitted program is a specialization of the static scheduler's cycle
// loop for one concrete netlist: every per-cycle decision that depends only
// on elaboration-time facts (module kind, driver identity, plan constants,
// chain membership, quarantine) is resolved here, once, and
// the interpreter executes the residue.  The resolve tape preserves the
// static scheduler's topological SCC order and its react-then-default
// policy per channel, which is what makes the backend bit-identical to the
// dynamic baseline (the oracle proves static == dynamic; compiled mirrors
// static by construction).
#include <cstdint>
#include <memory>
#include <vector>

#include "devirt.hpp"
#include "liberty/core/netlist.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/gen/compiled_scheduler.hpp"

namespace liberty::gen {

namespace core = liberty::core;

CompiledScheduler::CompiledScheduler(core::Netlist& netlist)
    : AnalyzedScheduler(netlist) {
  lower();
  // Without RunScc ops every remaining opcode decides purely on channel
  // state, so the per-resolution hooks carry no information the end-of-
  // resolve sweep cannot recover; uninstalling them removes a virtual call
  // and the resolution bookkeeping from every send/ack (see fast_resolve_).
  if (fast_resolve_) install_hooks(nullptr);
}

void CompiledScheduler::lower() {
  const bool opt = plan_ != nullptr;

  // typeid once per module, here, instead of per hook call, per cycle.
  std::vector<Kind> kinds(module_tape_.size(), Kind::Unknown);
  for (const core::Module* m : module_tape_) {
    kinds[m->id()] = classify(*m);
  }

  // --- start tape: one instruction per module with a live cycle_start ----
  for (core::Module* m : module_tape_) {
    const auto id = static_cast<std::uint32_t>(m->id());
    if (module_quarantined(m->id())) continue;
    if (opt && plan_->elided[m->id()] != 0) continue;
    const Kind k = kinds[m->id()];
    Op op = Op::StartVirtual;
    if (k != Kind::Unknown && !start_op(k, op)) continue;  // no-op hook
    if (k == Kind::Unknown) {
      program_.start.push_back({Op::StartVirtual, id, 0});
      ++program_.virtual_ops;
    } else {
      program_.start.push_back({op, id, 0});
      ++program_.devirt_ops;
    }
  }
  program_.start.push_back({Op::Halt, 0, 0});

  // --- resolve tape: topological SCC order, like the static scheduler ----
  const auto& nodes = graph_.nodes();
  const auto& sccs = graph_.sccs();

  auto emit_channel = [&](core::ChannelId ch) {
    const core::ScheduleGraph::Node& n = nodes[ch];
    if (opt && plan_->channel_const[ch] != 0) return;  // pre-resolved
    if (opt) {
      const std::int32_t chain = plan_->chain_of_channel[ch];
      if (chain >= 0) {
        program_.resolve.push_back({Op::Chain,
                                    static_cast<std::uint32_t>(chain),
                                    static_cast<std::uint32_t>(ch)});
        return;
      }
    }
    const auto conn = static_cast<std::uint32_t>(n.conn->id());
    core::Module* const d = n.driver;
    if (n.kind == core::ChannelKind::Forward) {
      if (d == nullptr || module_quarantined(d->id())) {
        program_.resolve.push_back({Op::DefFwd, conn, 0});
        return;
      }
      const Kind k = kinds[d->id()];
      Op op = Op::FwdVirtual;
      const auto mid = static_cast<std::uint32_t>(d->id());
      if (k == Kind::Unknown) {
        program_.resolve.push_back({Op::FwdVirtual, mid, conn});
        ++program_.virtual_ops;
      } else if (fwd_op(k, op)) {
        program_.resolve.push_back({op, mid, conn});
        ++program_.devirt_ops;
      } else {
        // Stock kind without react(): the offer comes from cycle_start or
        // not at all — go straight to the kernel default.
        program_.resolve.push_back({Op::DefFwd, conn, 0});
      }
    } else {
      if (d == nullptr) {
        program_.resolve.push_back({Op::AutoAck, conn, 0});
        return;
      }
      if (module_quarantined(d->id())) {
        program_.resolve.push_back({Op::DefBwd, conn, 0});
        return;
      }
      const Kind k = kinds[d->id()];
      Op op = Op::BwdVirtual;
      const auto mid = static_cast<std::uint32_t>(d->id());
      if (k == Kind::Unknown) {
        program_.resolve.push_back({Op::BwdVirtual, mid, conn});
        ++program_.virtual_ops;
      } else if (bwd_op(k, op)) {
        program_.resolve.push_back({op, mid, conn});
        ++program_.devirt_ops;
      } else {
        program_.resolve.push_back({Op::DefBwd, conn, 0});
      }
    }
  };

  for (std::uint32_t i = 0; i < sccs.size(); ++i) {
    if (sccs[i].size() == 1 && !graph_.self_loop(i)) {
      emit_channel(sccs[i][0]);
    } else {
      program_.resolve.push_back({Op::RunScc, i, 0});
    }
  }
  program_.resolve.push_back({Op::Halt, 0, 0});

  fast_resolve_ = true;
  for (const Instr& ins : program_.resolve) {
    if (ins.op == Op::RunScc) {
      fast_resolve_ = false;
      break;
    }
  }

  // --- commit tape: one instruction per module with a live end_of_cycle --
  for (core::Module* m : module_tape_) {
    const auto id = static_cast<std::uint32_t>(m->id());
    if (module_quarantined(m->id())) continue;
    if (opt && plan_->elided[m->id()] != 0) continue;
    const Kind k = kinds[m->id()];
    Op op = Op::EndVirtual;
    if (k != Kind::Unknown && !end_op(k, op)) continue;  // no-op hook
    if (k == Kind::Unknown) {
      program_.commit.push_back({Op::EndVirtual, id, 0});
      ++program_.virtual_ops;
    } else {
      program_.commit.push_back({op, id, 0});
      ++program_.devirt_ops;
    }
  }
  program_.commit.push_back({Op::Halt, 0, 0});
}

void CompiledScheduler::visit_counters(const CounterVisitor& visit) const {
  AnalyzedScheduler::visit_counters(visit);
  visit("gen.start_ops", program_.start.size() - 1);
  visit("gen.resolve_ops", program_.resolve.size() - 1);
  visit("gen.commit_ops", program_.commit.size() - 1);
  visit("gen.devirtualized_ops", program_.devirt_ops);
  visit("gen.virtual_fallback_ops", program_.virtual_ops);
}

void ensure_registered() {
  core::set_compiled_scheduler_factory(
      [](core::Netlist& netlist) -> std::unique_ptr<core::SchedulerBase> {
        return std::make_unique<CompiledScheduler>(netlist);
      });
}

}  // namespace liberty::gen
