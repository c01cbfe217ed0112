#include "liberty/ccl/fabric.hpp"

#include "liberty/ccl/flit.hpp"
#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::ccl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

namespace {
PowerConfig link_power_config(const Params& params) {
  PowerConfig cfg;
  cfg.link_mm = params.get_real("link_mm", 1.0);
  cfg.flit_bits = params.get_size("flit_bits", 64);
  cfg.vdd = params.get_real("vdd", 1.0);
  return cfg;
}
}  // namespace

Link::Link(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 0, 1)),
      out_(add_out("out", 0, 1)),
      latency_(params.get_size("latency", 1)),
      capacity_(params.get_size("capacity", 0)),
      power_(link_power_config(params)) {
  if (latency_ == 0) {
    throw liberty::ElaborationError("ccl.link '" + name +
                                    "': latency must be >= 1");
  }
  if (capacity_ == 0) capacity_ = static_cast<std::size_t>(latency_);
}

void Link::cycle_start(Cycle c) {
  if (!entries_.empty() && entries_.front().ready <= c) {
    out_.send(entries_.front().value);
  } else {
    out_.idle();
  }
  if (entries_.size() < capacity_) {
    in_.ack();
  } else {
    in_.nack();
  }
}

void Link::end_of_cycle() {
  if (out_.transferred()) entries_.pop_front();
  if (in_.transferred()) {
    entries_.push_back(Entry{in_.data(), now() + latency_});
    power_.on_traversal();
    stats().bind(traversals_stat_, "traversals").inc();
  }
}

void Link::declare_deps(Deps& deps) const {
  deps.state_only(out_);
  deps.state_only(in_);
}

void Link::save_state(liberty::core::StateWriter& w) const {
  w.put_size(entries_.size());
  for (const Entry& e : entries_) {
    w.put(e.value);
    w.put_u64(e.ready);
  }
}

void Link::load_state(liberty::core::StateReader& r) {
  entries_.clear();
  const std::size_t n = r.get_size();
  for (std::size_t i = 0; i < n; ++i) {
    liberty::Value v = r.get();
    const Cycle ready = r.get_u64();
    entries_.push_back(Entry{std::move(v), ready});
  }
}

// ---------------------------------------------------------------------------
// Bus
// ---------------------------------------------------------------------------

Bus::Bus(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1)),
      out_(add_out("out", 1)),
      occupancy_(params.get_size("occupancy", 1)),
      broadcast_(params.get_bool("broadcast", true)) {
  if (occupancy_ == 0) {
    throw liberty::ElaborationError("ccl.bus '" + name +
                                    "': occupancy must be >= 1");
  }
}

void Bus::init() { delivered_.assign(out_.width(), false); }

void Bus::cycle_start(Cycle c) {
  winner_ = -1;
  decided_ = false;
  if (busy_) {
    stats().bind(busy_cycles_stat_, "busy_cycles").inc();
    if (c >= deliver_at_) {
      for (std::size_t o = 0; o < out_.width(); ++o) {
        if (!delivered_[o] && wants(o)) {
          out_.send_at(o, current_);
        } else {
          out_.idle(o);
        }
      }
      return;
    }
  }
  for (std::size_t o = 0; o < out_.width(); ++o) out_.idle(o);
}

void Bus::react() {
  if (busy_) {
    for (std::size_t i = 0; i < in_.width(); ++i) in_.nack(i);
    return;
  }
  if (decided_) return;
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (!in_.forward_known(i)) return;  // wait for every offer
  }
  decided_ = true;
  // Round-robin: the first requester at or after rr_, else the first.
  std::size_t requests = 0;
  int first = -1;
  int after_rr = -1;
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (!in_.has_data(i)) continue;
    ++requests;
    if (first < 0) first = static_cast<int>(i);
    if (after_rr < 0 && i >= rr_) after_rr = static_cast<int>(i);
  }
  if (requests > 1) stats().bind(conflicts_stat_, "conflicts").inc();
  winner_ = after_rr >= 0 ? after_rr : first;
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (static_cast<int>(i) == winner_) {
      in_.ack(i);  // latched into the bus this cycle
    } else {
      in_.nack(i);
    }
  }
}

bool Bus::wants(std::size_t o) const {
  if (broadcast_) return true;
  const auto* payload =
      std::get_if<std::shared_ptr<const Payload>>(&current_.raw());
  if (payload != nullptr) {
    if (const auto* r = dynamic_cast<const pcl::Routable*>(payload->get())) {
      return r->route_key() % out_.width() == o;
    }
  }
  return o == 0;
}

void Bus::end_of_cycle() {
  if (busy_) {
    bool all = true;
    for (std::size_t o = 0; o < out_.width(); ++o) {
      if (out_.transferred(o)) delivered_[o] = true;
      if (wants(o) && !delivered_[o]) all = false;
    }
    if (all) {
      busy_ = false;
      stats().bind(transactions_stat_, "transactions").inc();
    }
    return;
  }
  if (winner_ >= 0 && in_.transferred(static_cast<std::size_t>(winner_))) {
    current_ = in_.data(static_cast<std::size_t>(winner_));
    busy_ = true;
    deliver_at_ = now() + occupancy_;
    delivered_.assign(out_.width(), false);
    rr_ = (static_cast<std::size_t>(winner_) + 1) % in_.width();
  }
}

void Bus::declare_deps(Deps& deps) const {
  deps.state_only(out_);
  deps.depends(in_, {liberty::core::fwd(in_)});
}

void Bus::save_state(liberty::core::StateWriter& w) const {
  // winner_/decided_ are per-cycle scratch (reset in cycle_start); the
  // persistent state is the arbitration pointer and the in-flight
  // transaction, whose Value only exists while the bus is busy.
  w.put_size(rr_);
  w.put_bool(busy_);
  if (busy_) {
    w.put(current_);
    w.put_u64(deliver_at_);
    for (std::size_t o = 0; o < delivered_.size(); ++o) {
      w.put_bool(delivered_[o]);
    }
  }
}

void Bus::load_state(liberty::core::StateReader& r) {
  rr_ = r.get_size();
  busy_ = r.get_bool();
  delivered_.assign(out_.width(), false);
  if (busy_) {
    current_ = r.get();
    deliver_at_ = r.get_u64();
    for (std::size_t o = 0; o < delivered_.size(); ++o) {
      delivered_[o] = r.get_bool();
    }
  } else {
    current_ = liberty::Value();
    deliver_at_ = 0;
  }
}

}  // namespace liberty::ccl
