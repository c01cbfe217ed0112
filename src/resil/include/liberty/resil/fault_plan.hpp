// FaultPlan: a declarative, seeded, JSON-loadable description of the
// contract-level faults one run should suffer.
//
// The resilience layer's first principle is that a fault is *data*, not
// code: a plan names which connection (or module) misbehaves, how, and from
// which cycle — and the injector turns that into pure (connection, cycle)
// mappings at the kernel's fault seam.  Because a plan is a value it can be
// serialized into artifacts, replayed under a different scheduler, shrunk,
// or generated from a seed, and the same plan always produces the same
// faulty trajectory (see docs/resilience.md "Determinism").
//
// Fault taxonomy (one class per way the 3-signal contract can break):
//
//   corrupt_data   offered payloads are replaced with a seeded substitute
//                  that varies per cycle (a flaky datapath)
//   drop_enable    asserted offers are suppressed (a dead producer link)
//   stuck_channel  offered payloads are wedged at one fixed seeded value
//                  (a stuck latch, biting whenever data flows; idle cycles
//                  stay idle — faults corrupt or suppress offers but never
//                  fabricate one, see fault.hpp "Module-safety contract")
//   drop_ack       acks are forced to "refuses" (a deaf consumer link)
//   spurious_ack   acks are forced to "accepts" (a chattering consumer)
//   handler_throw  a module's handler fails outright at cycle start
//
// Environment fault classes target the durability layer rather than the
// simulated system (the DurableSupervisor queries them at spill time, so
// the checkpoint path itself runs under deterministic seeded injection):
//
//   torn_checkpoint    checkpoint writes are truncated at a seeded length
//                      (a crash mid-write; recovery must skip the file)
//   checkpoint_enospc  checkpoint writes fail outright (a full run dir)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "liberty/core/types.hpp"

namespace liberty::core {
class Netlist;
}

namespace liberty::resil {

inline constexpr const char* kFaultPlanSchemaName = "liberty.faultplan";
inline constexpr int kFaultPlanSchemaVersion = 1;

enum class FaultClass : std::uint8_t {
  CorruptData,
  DropEnable,
  StuckChannel,
  DropAck,
  SpuriousAck,
  HandlerThrow,
  TornCheckpoint,
  CheckpointEnospc,
};

inline constexpr std::size_t kFaultClassCount = 8;

/// Stable wire name of a fault class ("corrupt_data", "drop_ack", ...).
[[nodiscard]] std::string_view fault_class_name(FaultClass cls) noexcept;
/// Inverse of fault_class_name; throws liberty::Error on unknown names.
[[nodiscard]] FaultClass fault_class_from_name(std::string_view name);
/// Environment-fault classes perturb the durability layer (checkpoint
/// writes), not the simulated system; they target no connection or module.
[[nodiscard]] constexpr bool is_env_fault(FaultClass cls) noexcept {
  return cls == FaultClass::TornCheckpoint ||
         cls == FaultClass::CheckpointEnospc;
}
/// Channel-fault classes perturb a connection; HandlerThrow targets a
/// module and environment classes target the checkpoint path instead.
[[nodiscard]] constexpr bool is_channel_fault(FaultClass cls) noexcept {
  return cls != FaultClass::HandlerThrow && !is_env_fault(cls);
}

/// Throws liberty::Error unless `name` is empty or the kind_name() of a
/// scheduler (dynamic, static, compiled, native): a spec restricted to any
/// other name would silently match no scheduler and inject nothing.
void check_scheduler_restriction(std::string_view name);

struct FaultSpec {
  FaultClass cls = FaultClass::DropAck;
  core::ConnId connection = 0;  // channel faults: target connection id
  std::string module;           // HandlerThrow: target module instance name
  core::Cycle from_cycle = 0;   // first afflicted cycle (permanent onward)
  std::string scheduler;  // restrict to one kind_name() ("" = every kind)
  bool masked = false;    // deactivated (recovery policies set this)

  [[nodiscard]] std::string describe() const;
  [[nodiscard]] bool operator==(const FaultSpec& o) const {
    return cls == o.cls && connection == o.connection && module == o.module &&
           from_cycle == o.from_cycle && scheduler == o.scheduler &&
           masked == o.masked;
  }
};

struct FaultPlan {
  std::uint64_t seed = 0;  // feeds the substitute-value generator
  std::vector<FaultSpec> faults;

  [[nodiscard]] bool operator==(const FaultPlan& o) const {
    return seed == o.seed && faults == o.faults;
  }

  [[nodiscard]] std::string to_json() const;
  /// Parse a plan; throws liberty::Error on schema violations.
  static FaultPlan from_json(const std::string& text);
  /// Load from a file path; throws liberty::Error when unreadable.
  static FaultPlan load(const std::string& path);

  /// Seeded pseudo-random plan over a finalized netlist: `count` channel
  /// faults on connections drawn from the netlist (drop_ack targets are
  /// restricted to ungated AutoAccept connections so the default-control
  /// invariant makes them watchdog-detectable), with onset cycles in
  /// [0, horizon).  Same (seed, netlist shape) => same plan.
  static FaultPlan random(std::uint64_t seed, const core::Netlist& netlist,
                          core::Cycle horizon, std::size_t count = 1);
};

}  // namespace liberty::resil
