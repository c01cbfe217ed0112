#include "liberty/pcl/sink.hpp"

#include "liberty/pcl/payloads.hpp"

namespace liberty::pcl {

using liberty::core::AckMode;
using liberty::core::Params;

Sink::Sink(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::AutoAccept)),
      stop_after_(params.get_size("stop_after", 0)) {
}

void Sink::end_of_cycle() {
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (!in_.transferred(i)) continue;
    const liberty::Value& v = in_.data(i);
    ++consumed_;
    stats().bind(consumed_stat_, "consumed");
    consumed_stat_->inc();
    if (auto stamped = v.try_as<Stamped>()) {
      stats().bind(latency_stat_, "latency", /*buckets=*/256, /*width=*/1.0);
      latency_stat_->add(static_cast<double>(now() - stamped->born));
    }
    if (hook_) hook_(v, now());
  }
  if (stop_after_ != 0 && consumed_ >= stop_after_) request_stop();
}

void Sink::save_state(liberty::core::StateWriter& w) const {
  w.put_u64(consumed_);
}

void Sink::load_state(liberty::core::StateReader& r) {
  consumed_ = r.get_u64();
}

}  // namespace liberty::pcl
