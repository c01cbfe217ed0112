// Connection: one point-to-point link between an output endpoint and an
// input endpoint, carrying the paper's three-signal handshake.
//
// Per §2.1 of the paper, "each connection in LSE actually corresponds to a
// connection of 3 signals ... used to negotiate whether or not data can be
// transmitted across a connection in a particular time-step":
//
//   data    producer -> consumer    the Value being offered
//   enable  producer -> consumer    producer asserts it is offering data
//   ack     consumer -> producer    consumer asserts it accepts
//
// We group (data, enable) into the *forward* channel — a producer either
// send()s a value (enable asserted + data) or idles (enable negated) — and
// ack into the *backward* channel.  Each channel starts every cycle Unknown
// and resolves exactly once (monotonically); a second, different drive is a
// module bug and throws SimulationError.  A transfer occurs in a cycle iff
// enable and ack are both asserted at the end of the cycle.
//
// Control override (§2.1 "LSE allows the user to override the default
// control semantics so that any system behavior can be specified"): a user
// may install a transfer gate on any connection.  The gate sees the offered
// value and may veto the consumer's acceptance, independent of either
// module's functionality — e.g. to inject stalls, model faults, or filter
// traffic without touching component code.
//
// Concurrency: none.  The kernel is single-threaded, so the channel
// control state is plain fields and every resolve happens on the thread
// that runs the cycle.  One thread resolving each channel exactly once is
// also what lets the schedulers maintain the transferred-connection dirty
// list without an end-of-cycle scan: the second of a connection's two
// resolutions is the one that sees the completed transfer.  Transfer gates
// must be installed before scheduler construction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "liberty/core/types.hpp"
#include "liberty/support/error.hpp"
#include "liberty/support/tristate.hpp"
#include "liberty/support/value.hpp"

namespace liberty::core {

class FaultHook;
class Module;
class Netlist;
class Connection;

/// How the backward (ack) channel of a connection is produced.
enum class AckMode : std::uint8_t {
  /// The consuming module's code drives ack/nack explicitly.
  Managed,
  /// The kernel drives ack := enable as soon as the forward channel
  /// resolves (the consumer accepts everything offered).  This is the
  /// "default control semantics" of §2.1: datapath-only specifications work
  /// without the user writing any control.
  AutoAccept,
};

/// Scheduler callback interface: invoked whenever a channel resolves so the
/// event-driven scheduler can re-activate the modules that observe it.
class ResolveHooks {
 public:
  virtual ~ResolveHooks() = default;
  virtual void on_forward_resolved(Connection&) = 0;
  virtual void on_backward_resolved(Connection&) = 0;
};

class Connection {
 public:
  /// User control override: returns whether a transfer offered with this
  /// value may complete.  Applied on top of the consumer's own acceptance.
  using TransferGate = std::function<bool(const Value&)>;

  Connection(ConnId id, Module* producer, std::string producer_ref,
             Module* consumer, std::string consumer_ref)
      : id_(id),
        producer_(producer),
        consumer_(consumer),
        producer_ref_(std::move(producer_ref)),
        consumer_ref_(std::move(consumer_ref)) {}

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] ConnId id() const noexcept { return id_; }
  [[nodiscard]] Module* producer() const noexcept { return producer_; }
  [[nodiscard]] Module* consumer() const noexcept { return consumer_; }
  [[nodiscard]] const std::string& producer_ref() const noexcept {
    return producer_ref_;
  }
  [[nodiscard]] const std::string& consumer_ref() const noexcept {
    return consumer_ref_;
  }

  [[nodiscard]] AckMode ack_mode() const noexcept { return ack_mode_; }
  void set_ack_mode(AckMode m) noexcept { ack_mode_ = m; }

  void set_transfer_gate(TransferGate g) { gate_ = std::move(g); }
  [[nodiscard]] bool has_transfer_gate() const noexcept {
    return static_cast<bool>(gate_);
  }

  // --- Forward channel ----------------------------------------------------

  [[nodiscard]] bool forward_known() const noexcept {
    return known(enable_);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return asserted(enable_);
  }
  [[nodiscard]] const Value& data() const noexcept { return data_; }

  /// Producer offers `v` this cycle.
  void send(const Value& v) { resolve_forward(Tristate::Asserted, v); }
  /// Producer explicitly offers nothing this cycle.
  void idle() { resolve_forward(Tristate::Negated, Value()); }

  // --- Backward channel ---------------------------------------------------

  [[nodiscard]] bool ack_known() const noexcept {
    return known(ack_);
  }
  [[nodiscard]] bool acked() const noexcept {
    return asserted(ack_);
  }

  /// Consumer accepts this cycle's offer.  With a transfer gate installed,
  /// final acceptance additionally requires the gate's approval, so the ack
  /// may not resolve until the forward channel does.
  void ack() { resolve_backward(Tristate::Asserted); }
  /// Consumer refuses this cycle.
  void nack() { resolve_backward(Tristate::Negated); }

  // --- Cycle-boundary queries ----------------------------------------------

  [[nodiscard]] bool fully_resolved() const noexcept {
    return forward_known() && ack_known();
  }

  /// True when a transfer happens this cycle (valid once fully resolved).
  [[nodiscard]] bool transferred() const noexcept {
    return enabled() && acked();
  }

  [[nodiscard]] std::uint64_t transfer_count() const noexcept {
    return transfers_;
  }
  /// Bumps every time either channel resolves; a cheap global progress
  /// measure.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return gen_fwd_ + gen_bwd_;
  }

  [[nodiscard]] std::string describe() const;

 private:
  friend class Netlist;
  friend class SchedulerBase;

  // Both resolve paths dispatch through the fault seam first: an installed
  // FaultHook (liberty/core/fault.hpp) may rewrite the signal/value about
  // to be applied.  Interception happens *before* the idempotence compare,
  // so re-drives of an already-mapped channel map identically and still
  // count as idempotent.  The faulted variants live out of line
  // (kernel/fault.cpp) to keep this hot path call-free when no hook is
  // installed.

  void resolve_forward(Tristate enable, const Value& v) {
    if (fault_ != nullptr) {
      resolve_forward_faulted(enable, v);
      return;
    }
    resolve_forward_impl(enable, v);
  }

  void resolve_backward(Tristate intent) {
    if (fault_ != nullptr) {
      resolve_backward_faulted(intent);
      return;
    }
    resolve_backward_impl(intent);
  }

  void resolve_forward_faulted(Tristate enable, const Value& v);
  void resolve_backward_faulted(Tristate intent);

  void resolve_forward_impl(Tristate enable, const Value& v) {
    if (forward_known()) {
      if (enable_ == enable && data_ == v) {
        return;  // idempotent re-drive
      }
      throw liberty::SimulationError(
          "non-monotone forward drive on connection " + describe());
    }
    // An unresolved channel's data_ is always the post-reset token, so
    // token drives (idle(), token traffic) skip the variant assignment —
    // the idempotence compare above still holds because both sides stay
    // monostate.
    if (!v.is_token()) data_ = v;
    enable_ = enable;
    ++gen_fwd_;
    if (hooks_ != nullptr) hooks_->on_forward_resolved(*this);
    // A gated ack may have been waiting for the offer to become known.
    if (known(pending_intent_) && !ack_known()) {
      finish_backward(apply_gate(pending_intent_));
    }
  }

  void resolve_backward_impl(Tristate intent) {
    if (known(intent_)) {
      if (intent_ == intent) return;  // idempotent re-drive
      throw liberty::SimulationError(
          "non-monotone backward drive on connection " + describe());
    }
    intent_ = intent;
    if (gate_ && asserted(intent) && !forward_known()) {
      pending_intent_ = intent;  // defer until the offer is known
      return;
    }
    finish_backward(apply_gate(intent));
  }

  [[nodiscard]] Tristate apply_gate(Tristate intent) const {
    if (gate_ && asserted(intent) && enabled()) {
      return to_tristate(gate_(data_));
    }
    return intent;
  }

  void finish_backward(Tristate final_ack) {
    pending_intent_ = Tristate::Unknown;
    ack_ = final_ack;
    ++gen_bwd_;
    if (hooks_ != nullptr) hooks_->on_backward_resolved(*this);
  }

  /// Count a completed transfer (scheduler end-of-cycle, from the
  /// transferred-connection dirty list).
  void note_transfer() noexcept { ++transfers_; }

  /// Clear per-cycle channel state (scheduler end-of-cycle).
  void reset_channels() noexcept {
    enable_ = Tristate::Unknown;
    ack_ = Tristate::Unknown;
    intent_ = Tristate::Unknown;
    pending_intent_ = Tristate::Unknown;
    if (!data_.is_token()) data_ = Value();
  }

  void set_hooks(ResolveHooks* h) noexcept { hooks_ = h; }
  void set_fault_hook(FaultHook* h) noexcept { fault_ = h; }

  ConnId id_;
  Module* producer_;
  Module* consumer_;
  std::string producer_ref_;
  std::string consumer_ref_;
  AckMode ack_mode_ = AckMode::AutoAccept;
  TransferGate gate_;
  ResolveHooks* hooks_ = nullptr;
  FaultHook* fault_ = nullptr;

  Tristate enable_ = Tristate::Unknown;
  Tristate ack_ = Tristate::Unknown;
  Tristate intent_ = Tristate::Unknown;
  Tristate pending_intent_ = Tristate::Unknown;
  Value data_;

  std::uint64_t transfers_ = 0;
  std::uint32_t gen_fwd_ = 0;
  std::uint32_t gen_bwd_ = 0;
};

}  // namespace liberty::core
