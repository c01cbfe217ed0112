// MemoryArray: request/response storage primitive.
//
// §3.1 names memory arrays among the PCL primitives, and §3 notes "the
// memory array primitive component ... can double as bus queuing buffers
// for CCL as well as caches in UPL".  UPL's cache module and MPL's memory
// controller both instantiate it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::pcl {

/// Accepts pcl::MemReq values on `req`, produces pcl::MemResp values on
/// `resp` after a fixed access latency.  Multiple outstanding requests are
/// pipelined up to `mshrs` entries.  Responses return on the `resp`
/// endpoint with the same index as the `req` endpoint that carried the
/// request, so several masters can share one memory.
///
/// Parameters:
///   latency   access latency in cycles (>= 1)                 [1]
///   mshrs     maximum outstanding requests                    [4]
///   ports     requests accepted per cycle                     [1]
///
/// Stats: reads, writes, busy_stalls.
class MemoryArray : public liberty::core::Module {
 public:
  MemoryArray(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  /// Backdoor access (program loading, checking final state in tests).
  void poke(std::uint64_t addr, std::int64_t data) { store_[addr] = data; }
  [[nodiscard]] std::int64_t peek(std::uint64_t addr) const {
    const auto it = store_.find(addr);
    return it == store_.end() ? 0 : it->second;
  }

 private:
  struct Pending {
    liberty::Value resp;
    liberty::core::Cycle ready;
    std::size_t src_ep;  // respond on the matching endpoint
  };

  liberty::core::Port& req_;
  liberty::core::Port& resp_;
  std::uint64_t latency_;
  std::size_t mshrs_;
  std::size_t ports_;
  // Ordered by address, so save_state walks it in its canonical order
  // without a per-call copy and sort.
  std::map<std::uint64_t, std::int64_t> store_;
  std::deque<Pending> pending_;

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* reads_stat_ = nullptr;
  liberty::Counter* writes_stat_ = nullptr;
  liberty::Counter* busy_stalls_stat_ = nullptr;
};

}  // namespace liberty::pcl
