#include "liberty/ccl/traffic.hpp"

#include "liberty/core/opt.hpp"
#include "liberty/support/error.hpp"

namespace liberty::ccl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

TrafficGen::TrafficGen(const std::string& name, const Params& params)
    : Module(name),
      out_(add_out("out", 0, 1)),
      id_num_(params.get_size("id", 0)),
      nodes_(params.get_size("nodes", 1)),
      pattern_(params.get_string("pattern", "uniform")),
      rate_(params.get_real("rate", 0.1)),
      count_(static_cast<std::uint64_t>(params.get_int("count", 0))),
      fixed_dst_(params.get_size("dst", 0)),
      hotspot_(params.get_size("hotspot", 0)),
      hotspot_frac_(params.get_real("hotspot_frac", 0.5)),
      cols_(params.get_size("cols", 1)),
      vcs_(params.get_size("vcs", 2)),
      length_(params.get_size("length", 1)),
      rng_(static_cast<std::uint64_t>(params.get_int("seed", 1)) * 0x9e37 +
           id_num_) {
  if (pattern_ != "uniform" && pattern_ != "transpose" &&
      pattern_ != "bitcomplement" && pattern_ != "neighbor" &&
      pattern_ != "hotspot" && pattern_ != "fixed") {
    throw liberty::ElaborationError("ccl.traffic_gen '" + name +
                                    "': unknown pattern '" + pattern_ + "'");
  }
}

std::size_t TrafficGen::pick_destination() {
  switch (pattern_[0]) {
    case 't': {  // transpose (square mesh)
      const std::size_t x = id_num_ % cols_;
      const std::size_t y = id_num_ / cols_;
      return (x * (nodes_ / cols_) + y) % nodes_;
    }
    case 'b': {  // bitcomplement
      return (~id_num_) & (nodes_ - 1);
    }
    case 'n':  // neighbor
      return (id_num_ + 1) % nodes_;
    case 'h':  // hotspot
      if (rng_.chance(hotspot_frac_)) return hotspot_;
      [[fallthrough]];
    case 'u': {  // uniform (excluding self)
      if (nodes_ <= 1) return id_num_;
      std::size_t d = static_cast<std::size_t>(rng_.below(nodes_ - 1));
      if (d >= id_num_) ++d;
      return d;
    }
    default:  // fixed
      return fixed_dst_;
  }
}

void TrafficGen::cycle_start(Cycle c) {
  const bool exhausted = count_ != 0 && generated_ >= count_;
  if (!exhausted && rng_.chance(rate_)) {
    const std::size_t dst = pick_destination();
    if (dst != id_num_) {
      const std::uint64_t pkt = generated_ | (id_num_ << 40);
      const std::size_t vc = generated_ % vcs_;
      for (std::size_t k = 0; k < length_; ++k) {
        auto flit = std::make_shared<Flit>(pkt, id_num_, dst, c, vc,
                                           /*head=*/k == 0,
                                           /*tail=*/k + 1 == length_);
        backlog_.push_back(liberty::Value(
            std::static_pointer_cast<const Payload>(std::move(flit))));
      }
    }
    ++generated_;
  }
  stats().bind(backlog_stat_, "backlog");
  backlog_stat_->add(static_cast<double>(backlog_.size()));
  if (!backlog_.empty()) {
    out_.send(backlog_.front());
  } else {
    out_.idle();
  }
}

void TrafficGen::end_of_cycle() {
  if (out_.transferred()) {
    backlog_.pop_front();
    ++injected_;
    stats().bind(injected_stat_, "injected");
    injected_stat_->inc();
  }
}

void TrafficGen::declare_deps(Deps& deps) const { deps.state_only(out_); }

void TrafficGen::save_state(liberty::core::StateWriter& w) const {
  liberty::core::save_rng(w, rng_);
  w.put_u64(generated_);
  w.put_u64(injected_);
  w.put_size(backlog_.size());
  for (const auto& v : backlog_) w.put(v);
}

void TrafficGen::load_state(liberty::core::StateReader& r) {
  liberty::core::load_rng(r, rng_);
  generated_ = r.get_u64();
  injected_ = r.get_u64();
  backlog_.clear();
  const std::size_t n = r.get_size();
  for (std::size_t i = 0; i < n; ++i) backlog_.push_back(r.get());
}

// ---------------------------------------------------------------------------
// TrafficSink
// ---------------------------------------------------------------------------

TrafficSink::TrafficSink(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::AutoAccept)),
      stop_after_(
          static_cast<std::uint64_t>(params.get_int("stop_after", 0))) {}

void TrafficSink::end_of_cycle() {
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (!in_.transferred(i)) continue;
    const auto flit = in_.data(i).as<Flit>();
    ++received_;
    stats().bind(received_stat_, "received");
    received_stat_->inc();
    if (flit->tail) {
      stats().bind(packets_stat_, "packets");
      packets_stat_->inc();
    }
    stats().bind(latency_stat_, "latency", 512, 1.0);
    latency_stat_->add(static_cast<double>(now() - flit->born));
    stats().bind(hops_stat_, "hops", 32, 1.0);
    hops_stat_->add(static_cast<double>(flit->hops));
  }
  if (stop_after_ != 0 && received_ >= stop_after_) request_stop();
}

void TrafficSink::declare_opt(liberty::core::OptTraits& traits) const {
  traits.sleepable();
}

bool TrafficSink::can_sleep() const {
  // Drives nothing; transfers into an asleep module still run its
  // end_of_cycle, so the stats and stop_after trigger are preserved.
  return true;
}

void TrafficSink::save_state(liberty::core::StateWriter& w) const {
  w.put_u64(received_);
}

void TrafficSink::load_state(liberty::core::StateReader& r) {
  received_ = r.get_u64();
}

double TrafficSink::mean_latency() const {
  const auto it = stats().histograms().find("latency");
  return it == stats().histograms().end() ? 0.0 : it->second.summary().mean();
}

double TrafficSink::mean_hops() const {
  const auto it = stats().histograms().find("hops");
  return it == stats().histograms().end() ? 0.0 : it->second.summary().mean();
}

}  // namespace liberty::ccl
