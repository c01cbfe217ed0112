#include "liberty/core/simulator.hpp"

#include <cstdio>
#include <string>

#include "liberty/support/error.hpp"

namespace liberty::core {

SchedulerKind scheduler_kind_from_name(std::string_view name) {
  if (name == "dyn" || name == "dynamic") return SchedulerKind::Dynamic;
  if (name == "static") return SchedulerKind::Static;
  if (name == "par" || name == "parallel") return SchedulerKind::Parallel;
  if (name == "comp" || name == "compiled") return SchedulerKind::Compiled;
  if (name == "native") return SchedulerKind::Native;
  throw liberty::ElaborationError(
      "unknown scheduler kind '" + std::string(name) +
      "' (valid: dyn|dynamic, static, par|parallel, comp|compiled, native)");
}

namespace {
CompiledSchedulerFactory g_compiled_factory = nullptr;
NativeSchedulerFactory g_native_factory = nullptr;
}  // namespace

void set_compiled_scheduler_factory(CompiledSchedulerFactory factory) {
  g_compiled_factory = factory;
}

CompiledSchedulerFactory compiled_scheduler_factory() {
  return g_compiled_factory;
}

void set_native_scheduler_factory(NativeSchedulerFactory factory) {
  g_native_factory = factory;
}

NativeSchedulerFactory native_scheduler_factory() {
  return g_native_factory;
}

Simulator::Simulator(Netlist& netlist, SchedulerKind kind, unsigned threads)
    : netlist_(netlist) {
  switch (kind) {
    case SchedulerKind::Dynamic:
      sched_ = std::make_unique<DynamicScheduler>(netlist);
      break;
    case SchedulerKind::Static:
      sched_ = std::make_unique<StaticScheduler>(netlist);
      break;
    case SchedulerKind::Parallel:
      sched_ = std::make_unique<ParallelScheduler>(netlist, threads);
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
    case SchedulerKind::Native:
      if (g_native_factory != nullptr) {
        sched_ = g_native_factory(netlist);
        break;
      }
      // Graceful degradation: a build without LIBERTY_NATIVE_CODEGEN still
      // accepts --scheduler native and runs the (bit-identical) compiled
      // bytecode backend, announcing the substitution once per process.
      if (g_compiled_factory == nullptr) {
        throw liberty::ElaborationError(
            "native scheduler requested but no backend is registered: "
            "link liberty_gen and call liberty::gen::ensure_registered() "
            "before constructing the Simulator");
      }
      {
        static const bool noticed = [] {
          std::fprintf(stderr,
                       "liberty: native codegen not built in "
                       "(LIBERTY_NATIVE_CODEGEN=OFF); --scheduler native "
                       "runs the compiled bytecode backend\n");
          return true;
        }();
        (void)noticed;
        sched_ = g_compiled_factory(netlist);
      }
      break;
  }
}

KernelSnapshot Simulator::snapshot() const {
  // Backends holding module state outside the module objects (native
  // codegen) publish it first so save_state serializes the real state.
  sched_->sync_module_state();
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
  sched_->sync_module_state();
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
  // Reset every piece of in-flight kernel state: the quiescence gate's
  // caches, backoff and asleep flags describe the pre-restore trajectory,
  // and if the last cycle aborted mid-resolve (watchdog violation,
  // injected fault) the channels and fused-chain sweep stamps are dirty.
  // recover_after_abort() wipes all of it; between clean cycles it is a
  // no-op re-initialization.
  scheduler().recover_after_abort();
  // The module objects now hold the restored state; a backend with
  // out-of-object module state (native codegen) reloads its images from
  // them.
  scheduler().reimport_module_state();
}

void Simulator::trace_transfers(std::ostream& os) {
  observe_transfers([&os](const Connection& c, Cycle cycle) {
    os << "@" << cycle << "  " << c.describe() << "  " << c.data().to_string()
       << '\n';
  });
}

}  // namespace liberty::core
