#include "liberty/resil/injector.hpp"

#include <algorithm>
#include <limits>

#include "liberty/core/connection.hpp"
#include "liberty/core/netlist.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/core/state.hpp"
#include "liberty/support/error.hpp"

namespace liberty::resil {

namespace {
constexpr std::uint64_t kNeverApplied =
    std::numeric_limits<std::uint64_t>::max();
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      applications_(plan_.faults.size(), 0),
      first_cycle_(plan_.faults.size(), kNeverApplied) {}

void FaultInjector::install(core::Simulator& sim) {
  sched_kind_ = std::string(sim.scheduler().kind_name());
  conn_count_ = sim.netlist().connection_count();
  for (const FaultSpec& f : plan_.faults) {
    check_scheduler_restriction(f.scheduler);
    if (is_channel_fault(f.cls) && f.connection >= conn_count_) {
      throw liberty::Error("fault plan: " + f.describe() +
                           " targets a connection outside this netlist (" +
                           std::to_string(conn_count_) + " connections)");
    }
    if (f.cls == FaultClass::HandlerThrow &&
        sim.netlist().find(f.module) == nullptr) {
      throw liberty::Error("fault plan: " + f.describe() +
                           " targets an unknown module");
    }
  }
  rebuild_tables();
  sim.set_fault_hook(this);
}

void FaultInjector::rebuild_tables() {
  fwd_spec_.assign(conn_count_, -1);
  bwd_spec_.assign(conn_count_, -1);
  handler_specs_.clear();
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.masked) continue;
    if (!f.scheduler.empty() && f.scheduler != sched_kind_) continue;
    const auto idx = static_cast<std::int32_t>(i);
    switch (f.cls) {
      case FaultClass::CorruptData:
      case FaultClass::DropEnable:
      case FaultClass::StuckChannel:
        if (fwd_spec_[f.connection] < 0) fwd_spec_[f.connection] = idx;
        break;
      case FaultClass::DropAck:
      case FaultClass::SpuriousAck:
        if (bwd_spec_[f.connection] < 0) bwd_spec_[f.connection] = idx;
        break;
      case FaultClass::HandlerThrow:
        handler_specs_.push_back(idx);
        break;
      case FaultClass::TornCheckpoint:
      case FaultClass::CheckpointEnospc:
        // Environment faults have no kernel-seam dispatch entry; the
        // DurableSupervisor polls them via env_fault_fires.
        break;
    }
  }
}

void FaultInjector::note_applied(std::int32_t spec_index) {
  note_applied_at(spec_index, cycle_);
}

void FaultInjector::note_applied_at(std::int32_t spec_index,
                                    core::Cycle cycle) {
  ++applications_[spec_index];
  auto& first = first_cycle_[spec_index];
  first = std::min(first, static_cast<std::uint64_t>(cycle));
}

bool FaultInjector::env_fault_fires(FaultClass cls, core::Cycle cycle) {
  bool fires = false;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.cls != cls || f.masked || cycle < f.from_cycle) continue;
    if (!f.scheduler.empty() && f.scheduler != sched_kind_) continue;
    note_applied_at(static_cast<std::int32_t>(i), cycle);
    fires = true;
  }
  return fires;
}

Value FaultInjector::substitute(core::ConnId conn, core::Cycle cycle) const {
  // Deterministic corrupted payload: a pure hash of (seed, connection,
  // cycle), reduced to a non-negative int64 so downstream value printing
  // and hashing behave everywhere.
  std::uint64_t h = core::kFnv1aInit;
  h = core::fnv1a_mix(h, plan_.seed);
  h = core::fnv1a_mix(h, static_cast<std::uint64_t>(conn) + 1);
  h = core::fnv1a_mix(h, static_cast<std::uint64_t>(cycle) + 1);
  return Value(static_cast<std::int64_t>(h & 0x7fffffffffffffffULL));
}

void FaultInjector::begin_cycle(core::Cycle cycle) {
  cycle_ = cycle;
  for (const std::int32_t i : handler_specs_) {
    const FaultSpec& f = plan_.faults[i];
    if (cycle < f.from_cycle) continue;
    note_applied(i);
    throw liberty::SimulationError(
        "injected handler fault: module '" + f.module +
        "' failed at cycle " + std::to_string(cycle));
  }
}

void FaultInjector::filter_forward(const core::Connection& c, Tristate& enable,
                                   Value& data) {
  const core::ConnId id = c.id();
  if (id >= fwd_spec_.size()) return;
  const std::int32_t si = fwd_spec_[id];
  if (si < 0) return;
  const FaultSpec& f = plan_.faults[si];
  if (cycle_ < f.from_cycle) return;
  switch (f.cls) {
    case FaultClass::CorruptData:
      if (asserted(enable)) {
        data = substitute(id, cycle_);
        note_applied(si);
      }
      break;
    case FaultClass::DropEnable:
      if (asserted(enable)) {
        enable = Tristate::Negated;
        data = Value();
        note_applied(si);
      }
      break;
    case FaultClass::StuckChannel:
      // Payload wedged at one fixed value (cycle 0 in the hash makes the
      // substitute constant per connection).  Only offered cycles are
      // perturbed: fabricating an offer the producer never made would
      // break the producer's view of its own handshake (modules pop
      // buffers keyed on transferred()), which faults must not do — see
      // fault.hpp "Module-safety contract".
      if (asserted(enable)) {
        data = substitute(id, 0);
        note_applied(si);
      }
      break;
    default:
      break;
  }
}

void FaultInjector::filter_backward(const core::Connection& c,
                                    Tristate& ack) {
  const core::ConnId id = c.id();
  if (id >= bwd_spec_.size()) return;
  const std::int32_t si = bwd_spec_[id];
  if (si < 0) return;
  const FaultSpec& f = plan_.faults[si];
  if (cycle_ < f.from_cycle) return;
  if (f.cls == FaultClass::DropAck) {
    ack = Tristate::Negated;
  } else {
    ack = Tristate::Asserted;
  }
  note_applied(si);
}

int FaultInjector::mask_through(core::Cycle cycle) {
  int masked = 0;
  for (FaultSpec& f : plan_.faults) {
    if (!f.masked && f.from_cycle <= cycle) {
      f.masked = true;
      ++masked;
    }
  }
  if (masked > 0) rebuild_tables();
  return masked;
}

int FaultInjector::mask_module(const std::string& name) {
  int masked = 0;
  for (FaultSpec& f : plan_.faults) {
    if (!f.masked && f.cls == FaultClass::HandlerThrow && f.module == name) {
      f.masked = true;
      ++masked;
    }
  }
  if (masked > 0) rebuild_tables();
  return masked;
}

int FaultInjector::mask_connection(core::ConnId id) {
  int masked = 0;
  for (FaultSpec& f : plan_.faults) {
    if (!f.masked && is_channel_fault(f.cls) && f.connection == id) {
      f.masked = true;
      ++masked;
    }
  }
  if (masked > 0) rebuild_tables();
  return masked;
}

std::vector<InjectionSite> FaultInjector::sites() const {
  std::vector<InjectionSite> out;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const std::uint64_t apps = applications_[i];
    if (apps == 0) continue;
    const FaultSpec& f = plan_.faults[i];
    InjectionSite site;
    site.cls = f.cls;
    site.connection = f.connection;
    site.module = f.module;
    site.first_cycle = static_cast<core::Cycle>(first_cycle_[i]);
    site.applications = apps;
    out.push_back(std::move(site));
  }
  return out;
}

}  // namespace liberty::resil
