// Structural in-order pipeline: five communicating stage modules.
//
// This is the paper's methodology applied to a processor: the model *is* the
// block diagram.  Fetch, Decode, Execute, Mem, and Writeback are separate
// module instances wired by ports; hazards, branch redirects, and cache
// stalls all travel through the same three-signal handshake as every other
// component, so any stage can be replaced by a more or less detailed model
// (§2.2 iterative refinement).
//
//   fetch.out ──> decode.in ──> exec.in ──> mem.in ──> wb.in
//        ^                          │          │
//        └──────── resolve ─────────┘          ├─ dreq  ──> cache.cpu_req
//                                              └─ dresp <── cache.cpu_resp
//
// Speculation: Fetch predicts branch directions (pluggable Predictor) and
// jalr targets (BTB).  Execute resolves; every branch sends a Resolution to
// Fetch for training, and a mispredict bumps the core's epoch, squashing
// younger in-flight instructions (identified by sequence number) without
// any per-stage flush wiring.
//
// Stages share architectural state through a CoreState object; when built
// from LSS (where modules cannot share C++ objects directly) the stages
// rendezvous on their netlist (Netlist::shared) under their "core"
// parameter.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "liberty/core/module.hpp"
#include "liberty/core/netlist.hpp"
#include "liberty/core/params.hpp"
#include "liberty/upl/isa.hpp"
#include "liberty/upl/predictors.hpp"

namespace liberty::upl {

/// Architectural + hazard state shared by the five stages of one core.
struct CoreState {
  Program program;
  std::vector<std::int64_t> regs = std::vector<std::int64_t>(32, 0);

  struct BusyEntry {
    bool busy = false;
    std::uint64_t producer_seq = 0;
  };
  std::array<BusyEntry, 32> busy{};

  std::uint64_t epoch = 0;  // bumped by Execute on every squash
  /// Set by Execute together with the epoch bump; consumed by Fetch at the
  /// top of the next cycle, *before* fetching, so that post-squash fetches
  /// are on the correct path from the first new-epoch token.
  std::optional<std::uint64_t> redirect;
  bool halted = false;
  std::uint64_t retired = 0;
  std::uint64_t squashed = 0;
  std::vector<std::int64_t> output;

  [[nodiscard]] bool reg_busy(std::size_t r) const {
    return r != 0 && busy[r].busy;
  }
  void mark_busy(std::size_t r, std::uint64_t seq) {
    if (r != 0) busy[r] = {true, seq};
  }
  void clear_busy(std::size_t r, std::uint64_t seq) {
    if (r != 0 && busy[r].busy && busy[r].producer_seq == seq) {
      busy[r].busy = false;
    }
  }
  /// Squash: forget busy bits owned by wrong-path producers.
  void squash_after(std::uint64_t seq) {
    for (auto& b : busy) {
      if (b.busy && b.producer_seq > seq) b.busy = false;
    }
  }

  /// Snapshot everything but the program (rebuilt at elaboration).  The
  /// core's FetchStage saves it, once for all five stages.
  void save(liberty::core::StateWriter& w) const;
  void load(liberty::core::StateReader& r);
};

/// An instruction in flight.  Immutable: each stage republishes an updated
/// copy downstream.
struct InstrToken final : Payload {
  std::uint64_t pc = 0;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
  Instr instr;
  bool pred_taken = false;
  std::uint64_t pred_target = 0;
  std::int64_t a = 0;  // operand values, read at decode
  std::int64_t b = 0;
  ExecResult result;   // filled at execute

  [[nodiscard]] std::string describe() const override {
    return "#" + std::to_string(seq) + "@" + std::to_string(pc) + " " +
           instr.to_string();
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("upl.instr"));
    h = fnv1a_mix(h, pc);
    h = fnv1a_mix(h, seq);
    h = fnv1a_mix(h, epoch);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(instr.op));
    h = fnv1a_mix(h, instr.rd);
    h = fnv1a_mix(h, instr.rs1);
    h = fnv1a_mix(h, instr.rs2);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(instr.imm));
    h = fnv1a_mix(h, pred_taken ? 1 : 0);
    h = fnv1a_mix(h, pred_target);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(a));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(b));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(result.value));
    h = fnv1a_mix(h, result.mem_addr);
    h = fnv1a_mix(h, result.taken ? 1 : 0);
    h = fnv1a_mix(h, result.target);
    h = fnv1a_mix(h, result.writes_reg ? 1 : 0);
    h = fnv1a_mix(h, result.halts ? 1 : 0);
    h = fnv1a_mix(h, result.out.has_value() ? 1 : 0);
    if (result.out) h = fnv1a_mix(h, static_cast<std::uint64_t>(*result.out));
    return h;
  }
};

/// Branch resolution, Execute -> Fetch.
struct Resolution final : Payload {
  std::uint64_t branch_pc = 0;
  std::uint64_t branch_seq = 0;
  bool taken = false;
  std::uint64_t target = 0;   // next PC on the correct path
  bool mispredicted = false;
  bool is_conditional = false;

  [[nodiscard]] std::string describe() const override {
    return std::string("resolve@") + std::to_string(branch_pc) +
           (mispredicted ? " MISS" : " ok");
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("upl.resolution"));
    h = fnv1a_mix(h, branch_pc);
    h = fnv1a_mix(h, branch_seq);
    h = fnv1a_mix(h, taken ? 1 : 0);
    h = fnv1a_mix(h, target);
    h = fnv1a_mix(h, mispredicted ? 1 : 0);
    return fnv1a_mix(h, is_conditional ? 1 : 0);
  }
};

namespace detail {
/// Common scaffolding for single-in/single-out pipeline stages holding one
/// instruction: offers the processed held token each cycle and accepts a
/// new one as soon as the slot frees (bypass ack, like pcl.queue).
class StageBase : public liberty::core::Module {
 public:
  StageBase(const std::string& name, const liberty::core::Params& params,
            bool has_in, bool has_out);

  void set_state(std::shared_ptr<CoreState> s) { state_ = std::move(s); }
  [[nodiscard]] const std::shared_ptr<CoreState>& state() const {
    return state_;
  }

  /// Stages without a set_state() state take the one their netlist shares
  /// under the "core" parameter; stages with neither are unusable.
  void init() override;

 protected:
  std::shared_ptr<CoreState> state_;
  std::string core_;  // "core" parameter: the rendezvous key
  liberty::core::Port* in_ = nullptr;
  liberty::core::Port* out_ = nullptr;
};
}  // namespace detail

/// Fetch: program counter, branch prediction, squash handling.
/// Parameters: core (rendezvous key), predictor ("taken"|"not_taken"|"bimodal"|
/// "gshare"|"tournament"), btb_entries, program (LRISC asm text; optional —
/// C++ builders usually install the program into CoreState directly).
class FetchStage final : public detail::StageBase {
 public:
  FetchStage(const std::string& name, const liberty::core::Params& params);

  void init() override;
  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  /// Also saves the shared CoreState.
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] const Predictor& predictor() const { return *pred_; }

 private:
  [[nodiscard]] liberty::Value make_token();

  liberty::core::Port& resolve_;
  std::string program_src_;  // optional asm text from the LSS parameter
  std::unique_ptr<Predictor> pred_;
  Btb btb_;
  std::uint64_t pc_ = 0;
  std::uint64_t next_seq_ = 1;
  bool stalled_on_halt_ = false;
  std::optional<liberty::Value> slot_;  // fetched, waiting to issue
};

/// Decode: scoreboard interlock, register read.
class DecodeStage final : public detail::StageBase {
 public:
  DecodeStage(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void react() override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

 private:
  std::optional<liberty::Value> held_;  // decoded, waiting for execute
};

/// Execute: functional evaluation, branch resolution.
class ExecuteStage final : public detail::StageBase {
 public:
  ExecuteStage(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void react() override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

 private:
  liberty::core::Port& resolve_;
  std::optional<liberty::Value> held_;       // result token
  std::optional<liberty::Value> resolution_; // pending resolve message
  liberty::core::Cycle ready_ = 0;           // multi-cycle ALU ops
  std::uint64_t mul_latency_;
  std::uint64_t div_latency_;
};

/// Mem: loads/stores through the data cache ports; everything else passes.
class MemStage final : public detail::StageBase {
 public:
  MemStage(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void react() override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

 private:
  liberty::core::Port& dreq_;
  liberty::core::Port& dresp_;
  std::optional<liberty::Value> held_;     // completed, ready for writeback
  std::optional<liberty::Value> waiting_;  // load/store in flight
  liberty::Value pending_req_;             // the MemReq for waiting_
  bool req_sent_ = false;
  std::uint64_t next_tag_ = 1;
};

/// Writeback: commit, busy-bit release, retirement accounting.
/// Parameter: stop_on_halt (default true).
class WritebackStage final : public detail::StageBase {
 public:
  WritebackStage(const std::string& name,
                 const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;

 private:
  bool stop_on_halt_;
};

/// References to the stages of one assembled core.
struct InorderCore {
  FetchStage* fetch = nullptr;
  DecodeStage* decode = nullptr;
  ExecuteStage* exec = nullptr;
  MemStage* mem = nullptr;
  WritebackStage* wb = nullptr;
  std::shared_ptr<CoreState> state;

  [[nodiscard]] double ipc(std::uint64_t cycles) const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(state->retired) /
                             static_cast<double>(cycles);
  }
};

/// Build the five stages (named "<prefix>.fetch" etc.), wire them together,
/// attach `program`, and return the handles.  The data-side cache ports
/// (mem stage dreq/dresp) are left for the caller to connect — directly to
/// a memory, to a upl.cache, or to an MPL coherence controller.
InorderCore build_inorder_core(liberty::core::Netlist& netlist,
                               const std::string& prefix,
                               const Program& program,
                               const liberty::core::Params& params);

}  // namespace liberty::upl
