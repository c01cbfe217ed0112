#include "liberty/pcl/arbiter.hpp"

#include "liberty/support/error.hpp"

namespace liberty::pcl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

Arbiter::Arbiter(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1)),
      out_(add_out("out", 0, 1)),
      policy_(params.get_string("policy", "round_robin")) {
  if (policy_ != "round_robin" && policy_ != "priority" && policy_ != "lru") {
    throw liberty::ElaborationError("pcl.arbiter '" + name +
                                    "': unknown policy '" + policy_ + "'");
  }
}

void Arbiter::init() { last_grant_.assign(in_.width(), 0); }

void Arbiter::cycle_start(Cycle) {
  winner_ = -2;
  losers_nacked_ = false;
}

int Arbiter::select(const std::vector<std::size_t>& req) const {
  if (req.empty()) return -1;
  if (policy_ == "priority") return static_cast<int>(req.front());
  if (policy_ == "lru") {
    std::size_t best = req.front();
    for (const std::size_t i : req) {
      if (last_grant_[i] < last_grant_[best]) best = i;
    }
    return static_cast<int>(best);
  }
  // round_robin: first requester at or after the rotating pointer.
  for (const std::size_t i : req) {
    if (i >= rr_next_) return static_cast<int>(i);
  }
  return static_cast<int>(req.front());
}

void Arbiter::react() {
  // Decide the winner once every input's offer is known.
  if (winner_ == -2) {
    std::vector<std::size_t> requesters;
    for (std::size_t i = 0; i < in_.width(); ++i) {
      if (!in_.forward_known(i)) return;  // wait for full information
      if (in_.has_data(i)) requesters.push_back(i);
    }
    winner_ = select(requesters);
    if (requesters.size() > 1) {
      stats().bind(conflicts_stat_, "conflicts");
      conflicts_stat_->inc();
    }
    if (winner_ >= 0) {
      out_.send(in_.data(static_cast<std::size_t>(winner_)));
    } else {
      out_.idle();
    }
    // Losers are refused immediately; the winner's ack mirrors the output's.
    for (std::size_t i = 0; i < in_.width(); ++i) {
      if (static_cast<int>(i) != winner_) in_.nack(i);
    }
    losers_nacked_ = true;
  }
  if (winner_ >= 0 && !in_.ack_driven(static_cast<std::size_t>(winner_)) &&
      out_.ack_known()) {
    if (out_.acked()) {
      in_.ack(static_cast<std::size_t>(winner_));
    } else {
      in_.nack(static_cast<std::size_t>(winner_));
    }
  }
}

void Arbiter::end_of_cycle() {
  if (winner_ >= 0 && out_.transferred()) {
    const auto w = static_cast<std::size_t>(winner_);
    stats().bind(grants_stat_, "grants");
    grants_stat_->inc();
    if (grants_in_stat_.size() != in_.width()) {
      grants_in_stat_.resize(in_.width(), nullptr);
    }
    if (grants_in_stat_[w] == nullptr) {
      grants_in_stat_[w] = &stats().counter("grants_in" + std::to_string(w));
    }
    grants_in_stat_[w]->inc();
    last_grant_[w] = now() + 1;
    rr_next_ = (w + 1) % in_.width();
  }
}

void Arbiter::save_state(liberty::core::StateWriter& w) const {
  w.put_size(rr_next_);
  w.put_size(last_grant_.size());
  for (const std::uint64_t g : last_grant_) w.put_u64(g);
}

void Arbiter::load_state(liberty::core::StateReader& r) {
  rr_next_ = r.get_size();
  last_grant_.assign(r.get_size(), 0);
  for (auto& g : last_grant_) g = r.get_u64();
}

void Arbiter::declare_deps(Deps& deps) const {
  deps.depends(out_, {liberty::core::fwd(in_)});
  deps.depends(in_, {liberty::core::fwd(in_), liberty::core::bwd(out_)});
}

}  // namespace liberty::pcl
