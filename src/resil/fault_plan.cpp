#include "liberty/resil/fault_plan.hpp"

#include <fstream>
#include <sstream>

#include "liberty/core/connection.hpp"
#include "liberty/core/netlist.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/obs/json.hpp"
#include "liberty/support/error.hpp"

namespace liberty::resil {

namespace {

// splitmix64: tiny deterministic generator for plan synthesis.  Not the
// simulation Rng — plans must be reproducible from their seed alone,
// independent of any module's random state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::string_view kClassNames[kFaultClassCount] = {
    "corrupt_data", "drop_enable",  "stuck_channel",   "drop_ack",
    "spurious_ack", "handler_throw", "torn_checkpoint", "checkpoint_enospc",
};

}  // namespace

std::string_view fault_class_name(FaultClass cls) noexcept {
  return kClassNames[static_cast<std::size_t>(cls)];
}

FaultClass fault_class_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kFaultClassCount; ++i) {
    if (kClassNames[i] == name) return static_cast<FaultClass>(i);
  }
  throw liberty::Error("unknown fault class '" + std::string(name) +
                       "' (expected corrupt_data|drop_enable|stuck_channel|"
                       "drop_ack|spurious_ack|handler_throw|torn_checkpoint|"
                       "checkpoint_enospc)");
}

void check_scheduler_restriction(std::string_view name) {
  if (name.empty()) return;
  for (const core::SchedulerKind kind : core::kSchedulerKinds) {
    if (core::scheduler_kind_name(kind) == name) return;
  }
  throw liberty::Error("fault plan: unknown scheduler '" + std::string(name) +
                       "' (expected dynamic|static|compiled)");
}

std::string FaultSpec::describe() const {
  std::string s(fault_class_name(cls));
  if (cls == FaultClass::HandlerThrow) {
    s += " on module '" + module + "'";
  } else if (is_env_fault(cls)) {
    s += " on the checkpoint path";
  } else {
    s += " on connection " + std::to_string(connection);
  }
  s += " from cycle " + std::to_string(from_cycle);
  if (!scheduler.empty()) s += " (" + scheduler + " scheduler only)";
  if (masked) s += " [masked]";
  return s;
}

std::string FaultPlan::to_json() const {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", kFaultPlanSchemaName);
  w.field("version", static_cast<std::uint64_t>(kFaultPlanSchemaVersion));
  w.field("seed", seed);
  w.begin_array("faults");
  for (const FaultSpec& f : faults) {
    w.begin_object();
    w.field("class", fault_class_name(f.cls));
    if (f.cls == FaultClass::HandlerThrow) {
      w.field("module", f.module);
    } else if (!is_env_fault(f.cls)) {
      w.field("connection", static_cast<std::uint64_t>(f.connection));
    }
    w.field("from_cycle", static_cast<std::uint64_t>(f.from_cycle));
    if (!f.scheduler.empty()) w.field("scheduler", f.scheduler);
    if (f.masked) w.field("masked", true);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

FaultPlan FaultPlan::from_json(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  if (!doc.is_object()) throw liberty::Error("fault plan: not a JSON object");
  const obs::JsonValue* schema = doc.get("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kFaultPlanSchemaName) {
    throw liberty::Error("fault plan: missing or wrong schema (expected \"" +
                         std::string(kFaultPlanSchemaName) + "\")");
  }
  const obs::JsonValue* version = doc.get("version");
  if (version == nullptr || !version->is_number() ||
      static_cast<int>(version->number) != kFaultPlanSchemaVersion) {
    throw liberty::Error("fault plan: unsupported schema version");
  }

  FaultPlan plan;
  if (const obs::JsonValue* seed = doc.get("seed");
      seed != nullptr && seed->is_number()) {
    plan.seed = static_cast<std::uint64_t>(seed->number);
  }
  const obs::JsonValue* faults = doc.get("faults");
  if (faults == nullptr || !faults->is_array()) {
    throw liberty::Error("fault plan: missing \"faults\" array");
  }
  for (const obs::JsonValue& jf : faults->array) {
    if (!jf.is_object()) {
      throw liberty::Error("fault plan: fault entry is not an object");
    }
    FaultSpec f;
    const obs::JsonValue* cls = jf.get("class");
    if (cls == nullptr || !cls->is_string()) {
      throw liberty::Error("fault plan: fault entry missing \"class\"");
    }
    f.cls = fault_class_from_name(cls->string);
    if (is_env_fault(f.cls)) {
      // Environment faults target the checkpoint path, not the netlist.
    } else if (f.cls == FaultClass::HandlerThrow) {
      const obs::JsonValue* mod = jf.get("module");
      if (mod == nullptr || !mod->is_string() || mod->string.empty()) {
        throw liberty::Error("fault plan: handler_throw requires \"module\"");
      }
      f.module = mod->string;
    } else {
      const obs::JsonValue* conn = jf.get("connection");
      if (conn == nullptr || !conn->is_number()) {
        throw liberty::Error("fault plan: " +
                             std::string(fault_class_name(f.cls)) +
                             " requires \"connection\"");
      }
      f.connection = static_cast<core::ConnId>(conn->number);
    }
    if (const obs::JsonValue* from = jf.get("from_cycle");
        from != nullptr && from->is_number()) {
      f.from_cycle = static_cast<core::Cycle>(from->number);
    }
    if (const obs::JsonValue* sched = jf.get("scheduler");
        sched != nullptr && sched->is_string()) {
      f.scheduler = sched->string;
      check_scheduler_restriction(f.scheduler);
    }
    if (const obs::JsonValue* masked = jf.get("masked");
        masked != nullptr && masked->kind == obs::JsonValue::Kind::Bool) {
      f.masked = masked->boolean;
    }
    plan.faults.push_back(std::move(f));
  }
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw liberty::Error("cannot open fault plan file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

FaultPlan FaultPlan::random(std::uint64_t seed, const core::Netlist& netlist,
                            core::Cycle horizon, std::size_t count) {
  if (netlist.connection_count() == 0) {
    throw liberty::Error("fault plan: netlist has no connections");
  }
  if (horizon == 0) horizon = 1;

  // drop_ack is only interesting (and watchdog-detectable) where the kernel
  // owns the ack: ungated AutoAccept connections.
  std::vector<core::ConnId> auto_accept;
  for (const auto& c : netlist.connections()) {
    if (c->ack_mode() == core::AckMode::AutoAccept &&
        !c->has_transfer_gate()) {
      auto_accept.push_back(c->id());
    }
  }

  FaultPlan plan;
  plan.seed = seed;
  std::uint64_t state = seed ^ 0x5eed5eedULL;
  for (std::size_t i = 0; i < count; ++i) {
    FaultSpec f;
    // Channel classes only: handler_throw needs a module name, which random
    // plans leave to callers who know which handlers are interesting.
    constexpr FaultClass kChannelClasses[] = {
        FaultClass::CorruptData, FaultClass::DropEnable,
        FaultClass::StuckChannel, FaultClass::DropAck,
        FaultClass::SpuriousAck};
    const std::uint64_t pick = splitmix64(state);
    f.cls = kChannelClasses[pick % 5];
    if (f.cls == FaultClass::DropAck && !auto_accept.empty()) {
      f.connection = auto_accept[splitmix64(state) % auto_accept.size()];
    } else {
      f.connection = static_cast<core::ConnId>(splitmix64(state) %
                                               netlist.connection_count());
    }
    f.from_cycle = static_cast<core::Cycle>(splitmix64(state) % horizon);
    plan.faults.push_back(std::move(f));
  }
  return plan;
}

}  // namespace liberty::resil
