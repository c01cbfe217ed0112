// Flit: the unit of network transfer in the CCL.
#pragma once

#include <cstdint>
#include <string>

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/value.hpp"

namespace liberty::ccl {

/// A single-flit packet (multi-flit packets are modeled as `length`
/// back-to-back flits sharing a packet id; the router reserves the chosen
/// output for the whole packet).  Routable by destination so PCL steering
/// primitives can carry flits unmodified.
struct Flit final : Payload, pcl::Routable {
  Flit(std::uint64_t packet_, std::size_t src_, std::size_t dst_,
       std::uint64_t born_, std::size_t vc_ = 0, bool head_ = true,
       bool tail_ = true, liberty::Value body_ = {})
      : packet(packet_),
        src(src_),
        dst(dst_),
        born(born_),
        vc(vc_),
        head(head_),
        tail(tail_),
        body(std::move(body_)) {}

  std::uint64_t packet;
  std::size_t src;
  std::size_t dst;
  std::uint64_t born;   // injection cycle (end-to-end latency measurement)
  std::size_t vc;       // virtual channel id
  bool head;
  bool tail;
  std::uint64_t hops = 0;
  liberty::Value body;  // opaque payload (e.g. an upl::LineReq in a CMP)

  [[nodiscard]] std::size_t route_key() const override { return dst; }
  [[nodiscard]] std::string describe() const override {
    return "flit p" + std::to_string(packet) + " " + std::to_string(src) +
           "->" + std::to_string(dst);
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("ccl.flit"));
    h = fnv1a_mix(h, packet);
    h = fnv1a_mix(h, src);
    h = fnv1a_mix(h, dst);
    h = fnv1a_mix(h, born);
    h = fnv1a_mix(h, vc);
    h = fnv1a_mix(h, head ? 1 : 0);
    h = fnv1a_mix(h, tail ? 1 : 0);
    h = fnv1a_mix(h, hops);
    return digest_value(h, body);
  }

  /// Copy with one more hop recorded (flits are immutable on the wire).
  [[nodiscard]] std::shared_ptr<const Flit> hopped() const {
    auto f = std::make_shared<Flit>(*this);
    ++f->hops;
    return f;
  }
};

}  // namespace liberty::ccl
