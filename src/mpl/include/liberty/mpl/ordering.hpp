// Memory ordering controllers (§3.4: "pluggable memory ordering controllers
// to restrict the reordering allowed by the processor according to desired
// constraints").
//
// OrderingCtl sits between a processor's memory port and its cache:
//
//   mode = "sc"   sequential consistency: every access completes in the
//                 memory system, in order, before the next is accepted.
//   mode = "tso"  total store order: stores retire into a store buffer and
//                 complete immediately from the processor's point of view;
//                 loads may bypass buffered stores (forwarding from the
//                 youngest matching store).  This is the relaxation that
//                 makes the Dekker litmus test observable (test_mpl).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::mpl {

/// Ports: cpu_req/cpu_resp (processor side), mem_req/mem_resp (cache side).
/// Parameters: mode ("sc"|"tso"), depth (store buffer entries),
/// drain_delay (cycles a TSO store rests in the buffer before draining)
/// [tso, 8, 0].
/// Stats: loads, stores, forwards, drain_stalls.
class OrderingCtl : public liberty::core::Module {
 public:
  OrderingCtl(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] std::size_t store_buffer_depth() const noexcept {
    return buffer_.size();
  }

 private:
  struct BufferedStore {
    std::uint64_t addr;
    std::int64_t data;
  };

  liberty::core::Port& cpu_req_;
  liberty::core::Port& cpu_resp_;
  liberty::core::Port& mem_req_;
  liberty::core::Port& mem_resp_;

  bool tso_;
  std::size_t depth_;
  std::uint64_t drain_delay_;

  std::deque<BufferedStore> buffer_;       // TSO store buffer, oldest first
  std::deque<liberty::Value> drainq_;      // store requests headed downstream
  std::deque<liberty::core::Cycle> drain_ready_;  // earliest drain cycles
  std::deque<liberty::Value> cpu_respq_;   // responses back to the processor
  std::optional<liberty::Value> pending_load_;  // load in the memory system
  /// TSO: a load awaiting issue.  It takes priority over store drains —
  /// that bypass is precisely the reordering TSO permits.
  std::optional<liberty::Value> load_req_;
  bool offering_load_ = false;
  std::uint64_t drain_tags_outstanding_ = 0;
  std::uint64_t next_tag_ = 1u << 20;      // private tags for drained stores

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* drain_stalls_stat_ = nullptr;
  liberty::Counter* stores_stat_ = nullptr;
  liberty::Counter* loads_stat_ = nullptr;
  liberty::Counter* forwards_stat_ = nullptr;
};

}  // namespace liberty::mpl
