// Ethernet-style framing for the NIL (§3.5: "a network interface card
// (NIC) that translates between Ethernet and PCI formats").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/value.hpp"

namespace liberty::nil {

/// CRC-32 (IEEE 802.3 polynomial, bitwise reference implementation) over a
/// word vector — the frame check sequence of EthFrame.
[[nodiscard]] std::uint32_t crc32(const std::vector<std::int64_t>& words);

/// A network frame.  Routable by destination MAC so PCL/CCL fabrics can
/// carry frames directly.
struct EthFrame final : Payload, pcl::Routable {
  EthFrame(std::uint64_t src_mac_, std::uint64_t dst_mac_,
           std::vector<std::int64_t> payload_, std::uint32_t fcs_)
      : src_mac(src_mac_),
        dst_mac(dst_mac_),
        payload(std::move(payload_)),
        fcs(fcs_) {}

  /// Build a frame with a freshly computed FCS.
  [[nodiscard]] static std::shared_ptr<const EthFrame> make(
      std::uint64_t src, std::uint64_t dst,
      std::vector<std::int64_t> payload) {
    const std::uint32_t fcs = crc32(payload);
    return std::make_shared<const EthFrame>(src, dst, std::move(payload),
                                            fcs);
  }

  std::uint64_t src_mac;
  std::uint64_t dst_mac;
  std::vector<std::int64_t> payload;
  std::uint32_t fcs;

  [[nodiscard]] bool fcs_ok() const { return crc32(payload) == fcs; }

  [[nodiscard]] std::size_t route_key() const override {
    return static_cast<std::size_t>(dst_mac);
  }
  [[nodiscard]] std::string describe() const override {
    return "eth " + std::to_string(src_mac) + "->" + std::to_string(dst_mac) +
           " x" + std::to_string(payload.size());
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("nil.ethframe"));
    h = fnv1a_mix(h, src_mac);
    h = fnv1a_mix(h, dst_mac);
    h = fnv1a_words(h, payload);
    return fnv1a_mix(h, fcs);
  }
};

}  // namespace liberty::nil
