#include "liberty/pcl/source.hpp"

#include "liberty/core/opt.hpp"
#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::pcl {

using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

Source::Source(const std::string& name, const Params& params)
    : Module(name),
      rng_(static_cast<std::uint64_t>(params.get_int("seed", 1))),
      out_(add_out("out", /*min_conns=*/0, /*max_conns=*/1)),
      kind_(params.get_string("kind", "counter")),
      period_(static_cast<std::uint64_t>(params.get_int("period", 1))),
      rate_(params.get_real("rate", 0.0)),
      count_(static_cast<std::uint64_t>(params.get_int("count", 0))),
      start_(static_cast<std::uint64_t>(params.get_int("start", 0))),
      range_(params.get_int("range", 1024)),
      queue_depth_(params.get_size("queue_depth", 0)),
      stamp_(params.get_bool("stamp", false)) {
  if (kind_ != "counter" && kind_ != "token" && kind_ != "random") {
    throw liberty::ElaborationError("pcl.source '" + name +
                                    "': unknown kind '" + kind_ + "'");
  }
  if (period_ == 0 && rate_ <= 0.0) {
    throw liberty::ElaborationError(
        "pcl.source '" + name + "': need period >= 1 or rate > 0");
  }
}

liberty::Value Source::make_value(std::uint64_t seq) {
  if (kind_ == "counter") return liberty::Value(static_cast<std::int64_t>(seq));
  if (kind_ == "random") return liberty::Value(rng_.range(0, range_ - 1));
  return liberty::Value();  // token
}

bool Source::arrival_now(Cycle c) {
  if (c < start_) return false;
  if (period_ == 1) return true;  // the common case, minus the division
  if (period_ != 0) return (c - start_) % period_ == 0;
  return rng_.chance(rate_);
}

void Source::cycle_start(Cycle c) {
  const bool exhausted = count_ != 0 && generated_ >= count_;
  if (!exhausted && arrival_now(c)) {
    liberty::Value v = make_value(generated_);
    if (stamp_) v = liberty::Value::make<Stamped>(std::move(v), c);
    ++generated_;
    if (queue_depth_ != 0 && backlog_.size() >= queue_depth_) {
      stats().bind(dropped_stat_, "dropped");
      dropped_stat_->inc();
    } else {
      backlog_.push_back(std::move(v));
    }
  }
  stats().bind(backlog_stat_, "backlog");
  backlog_stat_->add(static_cast<double>(backlog_.size()));
  if (!backlog_.empty()) {
    out_.send(backlog_.front());
  } else {
    out_.idle();
  }
}

void Source::end_of_cycle() {
  if (out_.transferred()) {
    backlog_.pop_front();
    ++emitted_;
    stats().bind(emitted_stat_, "emitted");
    emitted_stat_->inc();
  }
}

void Source::declare_deps(Deps& deps) const {
  deps.state_only(out_);
}

void Source::declare_opt(liberty::core::OptTraits& traits) const {
  // A plain token tap (one empty token, every cycle, forever) offers the
  // identical (enable, value) pair each cycle regardless of acks: the
  // backlog is never empty after cycle 0 and its front is always Value().
  // Counter/random/stamped sources vary their payload, rated and windowed
  // ones their enable.  Never sleepable: cycle_start samples the backlog
  // accumulator stat unconditionally.
  if (kind_ == "token" && period_ == 1 && start_ == 0 && count_ == 0 &&
      !stamp_) {
    traits.const_forward(out_, /*enabled=*/true, liberty::Value());
  }
}

void Source::save_state(liberty::core::StateWriter& w) const {
  liberty::core::save_rng(w, rng_);
  w.put_u64(generated_);
  w.put_u64(emitted_);
  w.put_size(backlog_.size());
  for (const auto& v : backlog_) w.put(v);
}

void Source::load_state(liberty::core::StateReader& r) {
  liberty::core::load_rng(r, rng_);
  generated_ = r.get_u64();
  emitted_ = r.get_u64();
  backlog_.clear();
  const std::size_t n = r.get_size();
  for (std::size_t i = 0; i < n; ++i) backlog_.push_back(r.get());
}

}  // namespace liberty::pcl
