#include "liberty/ccl/wireless.hpp"

#include "liberty/support/error.hpp"

namespace liberty::ccl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

WirelessChannel::WirelessChannel(const std::string& name,
                                 const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1)),
      out_(add_out("out", 1)),
      airtime_(params.get_size("airtime", 8)),
      loss_(params.get_real("loss", 0.0)),
      rng_(static_cast<std::uint64_t>(params.get_int("seed", 1))) {
  if (airtime_ == 0) {
    throw liberty::ElaborationError("ccl.wireless '" + name +
                                    "': airtime must be >= 1");
  }
}

void WirelessChannel::cycle_start(Cycle c) {
  if (busy_ && c >= free_at_) {
    busy_ = false;
    // Transmission finished: schedule delivery (if it survived).  If the
    // previous delivery is still waiting on a stalled receiver, the new
    // packet is lost (receiver overrun).
    if (has_payload_) {
      if (delivered_pending_) {
        stats().counter("lost").inc();
        stats().counter("overruns").inc();
      } else {
        delivered_pending_ = true;
        on_air_ = tx_value_;
        dst_ = tx_dst_;
      }
      has_payload_ = false;
    }
  }
  for (std::size_t o = 0; o < out_.width(); ++o) {
    if (delivered_pending_ && o == dst_) {
      out_.send_at(o, on_air_);
    } else {
      out_.idle(o);
    }
  }
  if (busy_) stats().counter("busy_cycles").inc();
}

void WirelessChannel::react() {
  if (busy_) {
    // Carrier sense: medium occupied, everyone defers.
    for (std::size_t i = 0; i < in_.width(); ++i) in_.nack(i);
    return;
  }
  // Medium idle: every station that starts now transmits; two or more
  // starting together collide.
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (!in_.forward_known(i)) return;
  }
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (in_.has_data(i)) {
      in_.ack(i);  // the packet goes on the air (and may be lost)
    } else {
      in_.nack(i);
    }
  }
}

void WirelessChannel::end_of_cycle() {
  if (delivered_pending_ && out_.transferred(dst_)) {
    delivered_pending_ = false;
    stats().counter("delivered").inc();
  }

  std::vector<std::size_t> started;
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (in_.transferred(i)) started.push_back(i);
  }
  if (started.empty()) return;
  stats().counter("sent").inc(started.size());
  busy_ = true;
  free_at_ = now() + airtime_;
  if (started.size() > 1) {
    stats().counter("collisions").inc();
    stats().counter("lost").inc(started.size());
    has_payload_ = false;
    return;
  }
  const liberty::Value v = in_.data(started.front());
  const auto flit = v.try_as<Flit>();
  if (flit == nullptr) {
    throw liberty::SimulationError("ccl.wireless '" + name() +
                                   "': non-flit value on the air");
  }
  if (rng_.chance(loss_)) {
    stats().counter("lost").inc();
    has_payload_ = false;
    return;
  }
  has_payload_ = true;
  tx_value_ = v;
  tx_dst_ = flit->dst % out_.width();
}

void WirelessChannel::save_state(liberty::core::StateWriter& w) const {
  liberty::core::save_rng(w, rng_);
  w.put_bool(busy_);
  w.put_u64(free_at_);
  w.put_bool(has_payload_);
  w.put(tx_value_);
  w.put_size(tx_dst_);
  w.put(on_air_);
  w.put_size(dst_);
  w.put_bool(delivered_pending_);
}

void WirelessChannel::load_state(liberty::core::StateReader& r) {
  liberty::core::load_rng(r, rng_);
  busy_ = r.get_bool();
  free_at_ = r.get_u64();
  has_payload_ = r.get_bool();
  tx_value_ = r.get();
  tx_dst_ = r.get_size();
  on_air_ = r.get();
  dst_ = r.get_size();
  delivered_pending_ = r.get_bool();
}

void WirelessChannel::declare_deps(Deps& deps) const {
  deps.state_only(out_);
  deps.depends(in_, {liberty::core::fwd(in_)});
}

}  // namespace liberty::ccl
