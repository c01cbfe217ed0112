#include "liberty/nil/fabric_adapter.hpp"

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::nil {

using liberty::core::AckMode;
using liberty::core::bwd;
using liberty::core::Deps;
using liberty::core::fwd;
using liberty::core::Params;
using liberty::ccl::Flit;

FabricAdapter::FabricAdapter(const std::string& name, const Params& params)
    : Module(name),
      msg_in_(add_in("msg_in", AckMode::Managed, 0, 1)),
      net_out_(add_out("net_out", 0, 1)),
      net_in_(add_in("net_in", AckMode::Managed, 0, 1)),
      msg_out_(add_out("msg_out", 0, 1)),
      id_num_(params.get_size("id", 0)),
      vcs_(params.get_size("vcs", 2)) {}

void FabricAdapter::react() {
  // Outbound: wrap the offered message into a flit, once per cycle.
  if (msg_in_.forward_known() && !net_out_.forward_known()) {
    if (msg_in_.has_data()) {
      const liberty::Value& msg = msg_in_.data();
      const auto payload = msg.try_as<Payload>();
      const auto* routable =
          payload ? dynamic_cast<const pcl::Routable*>(payload.get())
                  : nullptr;
      if (routable == nullptr) {
        throw liberty::SimulationError("nil.fabric_adapter '" + name() +
                                       "': message is not Routable");
      }
      auto flit = std::make_shared<Flit>(
          next_packet_ | (static_cast<std::uint64_t>(id_num_) << 40),
          id_num_, routable->route_key(), now(), next_packet_ % vcs_);
      flit->body = msg;
      net_out_.send(liberty::Value(
          std::static_pointer_cast<const Payload>(std::move(flit))));
    } else {
      net_out_.idle();
    }
  }
  if (!msg_in_.ack_driven() && net_out_.ack_known()) {
    if (net_out_.acked()) {
      msg_in_.ack();
    } else {
      msg_in_.nack();
    }
  }

  // Inbound: unwrap.
  if (net_in_.forward_known() && !msg_out_.forward_known()) {
    if (net_in_.has_data()) {
      msg_out_.send(net_in_.data().as<Flit>()->body);
    } else {
      msg_out_.idle();
    }
  }
  if (!net_in_.ack_driven() && msg_out_.ack_known()) {
    if (msg_out_.acked()) {
      net_in_.ack();
    } else {
      net_in_.nack();
    }
  }
}

void FabricAdapter::end_of_cycle() {
  if (net_out_.transferred()) {
    ++next_packet_;
    stats().counter("tx").inc();
  }
  if (net_in_.transferred()) stats().counter("rx").inc();
}

void FabricAdapter::save_state(liberty::core::StateWriter& w) const {
  w.put_u64(next_packet_);
}

void FabricAdapter::load_state(liberty::core::StateReader& r) {
  next_packet_ = r.get_u64();
}

void FabricAdapter::declare_deps(Deps& deps) const {
  deps.depends(net_out_, {fwd(msg_in_)});
  deps.depends(msg_in_, {fwd(msg_in_), bwd(net_out_)});
  deps.depends(msg_out_, {fwd(net_in_)});
  deps.depends(net_in_, {fwd(net_in_), bwd(msg_out_)});
}

}  // namespace liberty::nil
