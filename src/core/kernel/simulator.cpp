#include "liberty/core/simulator.hpp"

#include <string>

#include "liberty/support/error.hpp"

namespace liberty::core {

SchedulerKind scheduler_kind_from_name(std::string_view name) {
  if (name == "dyn" || name == "dynamic") return SchedulerKind::Dynamic;
  if (name == "static") return SchedulerKind::Static;
  if (name == "comp" || name == "compiled") return SchedulerKind::Compiled;
  throw liberty::ElaborationError(
      "unknown scheduler kind '" + std::string(name) +
      "' (valid: dyn|dynamic, static, comp|compiled)");
}

std::string_view scheduler_kind_name(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::Dynamic: return "dynamic";
    case SchedulerKind::Static: return "static";
    case SchedulerKind::Compiled: return "compiled";
  }
  return "?";
}

namespace {
CompiledSchedulerFactory g_compiled_factory = nullptr;
}  // namespace

void set_compiled_scheduler_factory(CompiledSchedulerFactory factory) {
  g_compiled_factory = factory;
}

CompiledSchedulerFactory compiled_scheduler_factory() {
  return g_compiled_factory;
}

Simulator::Simulator(Netlist& netlist, SchedulerKind kind)
    : netlist_(netlist) {
  switch (kind) {
    case SchedulerKind::Dynamic:
      sched_ = std::make_unique<DynamicScheduler>(netlist);
      break;
    case SchedulerKind::Static:
      sched_ = std::make_unique<StaticScheduler>(netlist);
      break;
    case SchedulerKind::Compiled:
      if (g_compiled_factory == nullptr) {
        throw liberty::ElaborationError(
            "compiled scheduler requested but no backend is registered: "
            "link liberty_gen and call liberty::gen::ensure_registered() "
            "before constructing the Simulator");
      }
      sched_ = g_compiled_factory(netlist);
      break;
  }
}

KernelSnapshot Simulator::snapshot() const {
  KernelSnapshot snap;
  snap.cycle = now_;
  snap.stop_requested = netlist_.stop_requested();
  snap.module_state.reserve(netlist_.module_count());
  for (const auto& m : netlist_.modules()) {
    StateWriter w;
    m->save_state(w);
    snap.module_state.push_back(std::move(w).take());
  }
  return snap;
}

std::uint64_t Simulator::state_digest() const {
  // The fold of KernelSnapshot::digest(), one module at a time.
  std::uint64_t h = kFnv1aInit;
  for (const auto& m : netlist_.modules()) {
    h = fnv1a_mix(h, m->state_digest());
  }
  return h;
}

void Simulator::restore(const KernelSnapshot& snap) {
  const auto& modules = netlist_.modules();
  if (snap.module_state.size() != modules.size()) {
    throw liberty::SimulationError(
        "snapshot restore: netlist has " + std::to_string(modules.size()) +
        " modules, snapshot has " + std::to_string(snap.module_state.size()));
  }
  for (std::size_t i = 0; i < modules.size(); ++i) {
    StateReader r(snap.module_state[i], modules[i]->name());
    modules[i]->load_state(r);
    if (!r.exhausted()) {
      throw liberty::SimulationError(
          "snapshot restore: module '" + modules[i]->name() + "' left " +
          std::to_string(r.remaining()) +
          " state slot(s) unconsumed (save_state/load_state mismatch)");
    }
  }
  now_ = snap.cycle;
  netlist_.set_stop(snap.stop_requested);
  // Reset in-flight kernel state: if the last cycle aborted mid-resolve
  // (watchdog violation, injected fault) the channels and fused-chain sweep
  // stamps are dirty.  recover_after_abort() wipes both; between clean
  // cycles it is a no-op re-initialization.
  scheduler().recover_after_abort();
}

void Simulator::trace_transfers(std::ostream& os) {
  observe_transfers([&os](const Connection& c, Cycle cycle) {
    os << "@" << cycle << "  " << c.describe() << "  " << c.data().to_string()
       << '\n';
  });
}

}  // namespace liberty::core
