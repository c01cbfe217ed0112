#include "liberty/obs/profiler.hpp"

namespace liberty::obs {

void CycleProfiler::on_cycle_begin(liberty::core::Cycle c) {
  if (sink_ != nullptr) sink_->on_cycle_begin(c);
}

void CycleProfiler::on_cycle_end(liberty::core::Cycle c) {
  ++cycles_;
  if (sink_ != nullptr) sink_->on_cycle_end(c);
}

void CycleProfiler::on_phase(liberty::core::SchedPhase phase,
                             liberty::core::Cycle c, double seconds) {
  auto& t = phases_[static_cast<std::size_t>(phase)];
  t.seconds += seconds;
  ++t.count;
  if (sink_ != nullptr) sink_->on_phase(phase, c, seconds);
}

void CycleProfiler::on_module_batch(const std::uint64_t* reacts,
                                    const double* seconds, std::size_t n) {
  if (n > mod_reacts_.size()) {
    mod_reacts_.resize(n, 0);
    mod_seconds_.resize(n, 0.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    mod_reacts_[i] += reacts[i];
    mod_seconds_[i] += seconds[i];
  }
}

double CycleProfiler::total_seconds() const noexcept {
  double total = 0.0;
  for (const auto& t : phases_) total += t.seconds;
  return total;
}

void CycleProfiler::reset() {
  cycles_ = 0;
  phases_ = {};
  mod_reacts_.clear();
  mod_seconds_.clear();
}

}  // namespace liberty::obs
