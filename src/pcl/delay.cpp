#include "liberty/pcl/delay.hpp"

#include "liberty/core/opt.hpp"
#include "liberty/support/error.hpp"

namespace liberty::pcl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

Delay::Delay(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 0, 1)),
      out_(add_out("out", 0, 1)),
      latency_(static_cast<std::uint64_t>(params.get_int("latency", 1))),
      capacity_(params.get_size("capacity", 0)) {
  if (latency_ == 0) {
    throw liberty::ElaborationError("pcl.delay '" + name +
                                    "': latency must be >= 1");
  }
  if (capacity_ == 0) capacity_ = static_cast<std::size_t>(latency_);
}

void Delay::cycle_start(Cycle c) {
  if (!items_.empty() && items_.front().ready <= c) {
    out_.send(items_.front().value);
  } else {
    out_.idle();
  }
  if (items_.size() < capacity_) {
    in_.ack();
  } else {
    in_.nack();
  }
}

void Delay::end_of_cycle() {
  if (out_.transferred()) items_.pop_front();
  if (in_.transferred()) {
    items_.push_back(Entry{in_.data(), now() + latency_});
  }
}

void Delay::save_state(liberty::core::StateWriter& w) const {
  w.put_size(items_.size());
  for (const auto& e : items_) {
    w.put(e.value);
    w.put_u64(e.ready);
  }
}

void Delay::load_state(liberty::core::StateReader& r) {
  items_.clear();
  const std::size_t n = r.get_size();
  for (std::size_t i = 0; i < n; ++i) {
    liberty::Value v = r.get();
    const Cycle ready = r.get_u64();
    items_.push_back(Entry{std::move(v), ready});
  }
}

void Delay::declare_deps(Deps& deps) const {
  deps.state_only(out_);
  deps.state_only(in_);
}

void Delay::declare_opt(liberty::core::OptTraits& traits) const {
  traits.sleepable();
}

bool Delay::can_sleep() const {
  // Empty *and* nothing left this cycle: the pipeline drove idle+ack this
  // cycle and will drive the same next cycle.  (Empty alone is not enough —
  // the last item may have left during this end_of_cycle, in which case
  // this cycle's drive was a send.)  Sampled before channel reset, so
  // transferred() is still valid.
  return items_.empty() && !out_.transferred();
}

}  // namespace liberty::pcl
