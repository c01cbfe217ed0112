#include "liberty/pcl/buffer.hpp"

#include <algorithm>

#include "liberty/support/error.hpp"

namespace liberty::pcl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

Buffer::Buffer(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1)),
      out_(add_out("out", 0)),
      capacity_(params.get_size("capacity", 16)) {
  const std::string issue = params.get_string("issue", "fifo");
  if (issue != "fifo" && issue != "any") {
    throw liberty::ElaborationError("pcl.buffer '" + name +
                                    "': unknown issue policy '" + issue + "'");
  }
  fifo_ = issue == "fifo";
  if (capacity_ == 0) {
    throw liberty::ElaborationError("pcl.buffer '" + name +
                                    "': capacity must be >= 1");
  }
}

void Buffer::cycle_start(Cycle) {
  stats().bind(occupancy_stat_, "occupancy");
  occupancy_stat_->add(static_cast<double>(entries_.size()));

  // Offer ready entries to output endpoints, oldest first.
  issued_idx_.clear();
  std::size_t ep = 0;
  for (std::size_t i = 0; i < entries_.size() && ep < out_.width(); ++i) {
    if (is_ready(entries_[i])) {
      out_.send_at(ep, entries_[i]);
      issued_idx_.push_back(i);
      ++ep;
    } else if (fifo_) {
      stats().bind(issue_stalls_stat_, "issue_stalls");
      issue_stalls_stat_->inc();
      break;  // in-order: a stalled head blocks everything behind it
    }
  }
  for (; ep < out_.width(); ++ep) out_.idle(ep);

  // Accept as many inserts as there are free slots, in endpoint order.
  std::size_t free_slots = capacity_ - entries_.size();
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (free_slots > 0) {
      in_.ack(i);
      --free_slots;
    } else {
      in_.nack(i);
    }
  }
}

void Buffer::end_of_cycle() {
  // Remove issued entries that transferred (descending index so erase
  // positions stay valid).
  for (std::size_t k = issued_idx_.size(); k-- > 0;) {
    if (out_.transferred(k)) {
      entries_.erase(entries_.begin() +
                     static_cast<std::ptrdiff_t>(issued_idx_[k]));
      stats().bind(issued_stat_, "issued");
      issued_stat_->inc();
    }
  }
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (in_.transferred(i)) {
      entries_.push_back(in_.data(i));
      stats().bind(inserted_stat_, "inserted");
      inserted_stat_->inc();
    }
  }
  if (entries_.size() > capacity_) {
    throw liberty::SimulationError("pcl.buffer '" + name() +
                                   "': capacity overflow (internal)");
  }
}

void Buffer::save_state(liberty::core::StateWriter& w) const {
  w.put_size(entries_.size());
  for (const auto& v : entries_) w.put(v);
}

void Buffer::load_state(liberty::core::StateReader& r) {
  entries_.clear();
  const std::size_t n = r.get_size();
  for (std::size_t i = 0; i < n; ++i) entries_.push_back(r.get());
}

void Buffer::declare_deps(Deps& deps) const {
  deps.state_only(out_);
  deps.state_only(in_);
}

}  // namespace liberty::pcl
