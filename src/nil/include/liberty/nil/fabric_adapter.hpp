// FabricAdapter: the NIL's format converter (§3.5: "these devices translate
// between the formats understood on the external network and the local
// interconnect").
//
// Outbound, it wraps any pcl::Routable message into a ccl::Flit addressed
// to the message's route key; inbound, it unwraps flits back into their
// payload.  This one component is what lets the MPL's directory coherence
// protocol, the DMA engine's chunks, and application messages all ride the
// same CCL fabrics unchanged.
#pragma once

#include <cstdint>
#include <string>

#include "liberty/ccl/flit.hpp"
#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::nil {

/// Ports:
///   msg_in  (in)  local messages to transmit (must be pcl::Routable)
///   net_out (out) flits toward the fabric
///   net_in  (in)  flits from the fabric
///   msg_out (out) unwrapped payloads for the local component
///
/// Parameters:
///   id    this node's fabric address                        [0]
///   vcs   VCs outbound flits are spread across              [2]
///
/// Stats: tx, rx.
class FabricAdapter : public liberty::core::Module {
 public:
  FabricAdapter(const std::string& name, const liberty::core::Params& params);

  void react() override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

 private:
  liberty::core::Port& msg_in_;
  liberty::core::Port& net_out_;
  liberty::core::Port& net_in_;
  liberty::core::Port& msg_out_;
  std::size_t id_num_;
  std::size_t vcs_;
  std::uint64_t next_packet_ = 0;

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* tx_stat_ = nullptr;
  liberty::Counter* rx_stat_ = nullptr;
};

}  // namespace liberty::nil
