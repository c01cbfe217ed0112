#include "liberty/pcl/queue.hpp"

#include "liberty/support/error.hpp"

namespace liberty::pcl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

Queue::Queue(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 0, 1)),
      out_(add_out("out", 0, 1)),
      depth_(params.get_size("depth", 8)),
      bypass_ack_(params.get_bool("bypass_ack", false)) {
  if (depth_ == 0) {
    throw liberty::ElaborationError("pcl.queue '" + name +
                                    "': depth must be >= 1");
  }
}

void Queue::cycle_start(Cycle) {
  stats().bind(occupancy_stat_, "occupancy");
  occupancy_stat_->add(static_cast<double>(items_.size()));
  if (!items_.empty()) {
    out_.send(items_.front());
  } else {
    out_.idle();
  }
  if (items_.size() < depth_) {
    in_.ack();
  } else if (!bypass_ack_) {
    in_.nack();
    stats().bind(full_stalls_stat_, "full_stalls");
    full_stalls_stat_->inc();
  }
  // When full with bypass_ack, the input ack resolves in react() once the
  // output ack is known.
}

void Queue::react() {
  if (bypass_ack_ && !in_.ack_driven() && out_.ack_known()) {
    if (out_.acked() && !items_.empty()) {
      in_.ack();  // head drains this cycle; its slot is reusable
    } else {
      in_.nack();
      stats().bind(full_stalls_stat_, "full_stalls");
      full_stalls_stat_->inc();
    }
  }
}

void Queue::end_of_cycle() {
  if (out_.transferred()) {
    items_.pop_front();
    stats().bind(dequeued_stat_, "dequeued");
    dequeued_stat_->inc();
  }
  if (in_.transferred()) {
    items_.push_back(in_.data());
    stats().bind(enqueued_stat_, "enqueued");
    enqueued_stat_->inc();
  }
}

void Queue::save_state(liberty::core::StateWriter& w) const {
  w.put_size(items_.size());
  for (const auto& v : items_) w.put(v);
}

void Queue::load_state(liberty::core::StateReader& r) {
  items_.clear();
  const std::size_t n = r.get_size();
  for (std::size_t i = 0; i < n; ++i) items_.push_back(r.get());
}

void Queue::declare_deps(Deps& deps) const {
  deps.state_only(out_);
  if (bypass_ack_) {
    deps.depends(in_, {liberty::core::bwd(out_)});
  } else {
    deps.state_only(in_);
  }
}

}  // namespace liberty::pcl
