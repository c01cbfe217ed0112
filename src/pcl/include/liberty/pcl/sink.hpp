// Sink: consumes values, measures latency of Stamped payloads, and can end
// the simulation after a target item count — the measurement end of most
// testbenches.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::pcl {

/// Consumes everything offered on its input port (AutoAccept ack).
///
/// Parameters:
///   stop_after   request simulation stop after consuming this many values
///                (0 = never)                                       [0]
///
/// Stats: consumed; latency histogram when values are pcl::Stamped.
class Sink : public liberty::core::Module {
 public:
  using ConsumeHook =
      std::function<void(const liberty::Value&, liberty::core::Cycle)>;

  Sink(const std::string& name, const liberty::core::Params& params);

  void end_of_cycle() override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  /// Algorithmic parameter: called for every consumed value.
  void set_consume_hook(ConsumeHook hook) { hook_ = std::move(hook); }

  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }

 private:
  liberty::core::Port& in_;
  std::uint64_t stop_after_;
  std::uint64_t consumed_ = 0;
  ConsumeHook hook_;

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* consumed_stat_ = nullptr;
  liberty::Histogram* latency_stat_ = nullptr;
};

}  // namespace liberty::pcl
