// Statistical traffic workloads (§3.3: "modeling of traffic workloads").
//
// TrafficGen is the "statistical packet generator" of §2.2 — the abstract
// stand-in that a detailed processor + network interface can replace
// without touching the fabric model (bench_refinement measures exactly that
// swap).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "liberty/ccl/flit.hpp"
#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"
#include "liberty/support/rng.hpp"

namespace liberty::ccl {

/// Injects single-flit packets with a configurable spatial pattern.
///
/// Parameters:
///   id          source node id                                   [0]
///   nodes       node count                                       [1]
///   pattern     uniform | transpose | bitcomplement | neighbor |
///               hotspot | fixed                                  [uniform]
///   rate        injection probability per cycle                  [0.1]
///   count       packets to inject (0 = unlimited)                [0]
///   dst         destination for pattern=fixed                    [0]
///   hotspot     hotspot node (pattern=hotspot)                   [0]
///   hotspot_frac fraction of traffic to the hotspot              [0.5]
///   cols        mesh columns (transpose)                         [1]
///   vcs         VCs flits are spread across (packet % vcs)       [2]
///   seed        RNG seed (combined with id)                      [1]
///
/// Stats: injected, backlog (open-loop source queue depth).
class TrafficGen : public liberty::core::Module {
 public:
  TrafficGen(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }

 private:
  [[nodiscard]] std::size_t pick_destination();

  liberty::core::Port& out_;
  std::size_t id_num_;
  std::size_t nodes_;
  std::string pattern_;
  double rate_;
  std::uint64_t count_;
  std::size_t fixed_dst_;
  std::size_t hotspot_;
  double hotspot_frac_;
  std::size_t cols_;
  std::size_t vcs_;
  std::size_t length_;
  liberty::Rng rng_;

  std::deque<liberty::Value> backlog_;
  std::uint64_t generated_ = 0;
  std::uint64_t injected_ = 0;

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Accumulator* backlog_stat_ = nullptr;
  liberty::Counter* injected_stat_ = nullptr;
};

/// Consumes flits and measures end-to-end latency and hop counts.
///
/// Stats: received, latency (histogram), hops (histogram).
class TrafficSink : public liberty::core::Module {
 public:
  TrafficSink(const std::string& name, const liberty::core::Params& params);

  void end_of_cycle() override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  [[nodiscard]] double mean_latency() const;
  [[nodiscard]] double mean_hops() const;

 private:
  liberty::core::Port& in_;
  std::uint64_t stop_after_;
  std::uint64_t received_ = 0;

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* received_stat_ = nullptr;
  liberty::Counter* packets_stat_ = nullptr;
  liberty::Histogram* latency_stat_ = nullptr;
  liberty::Histogram* hops_stat_ = nullptr;
};

}  // namespace liberty::ccl
