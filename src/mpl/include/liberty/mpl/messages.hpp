// Coherence and message-passing payloads of the MPL (§3.4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/value.hpp"

namespace liberty::mpl {

/// Every coherence transaction on a bus or network.
struct CohMsg final : Payload, pcl::Routable {
  enum class Type : std::uint8_t {
    GetS,     // read miss: request shared copy
    GetX,     // write miss / upgrade: request exclusive copy
    Data,     // line data response (exclusive flag distinguishes S/M grant)
    WbData,   // dirty eviction / fetch response toward home or memory
    Inv,      // directory -> sharer: invalidate
    InvAck,   // sharer -> directory
    Fetch,    // directory -> owner: surrender the line
    Done,     // snooping bus: requester closes its transaction
  };

  CohMsg(Type type_, std::uint64_t line_, std::size_t src_, std::size_t dst_,
         std::uint64_t tag_ = 0, std::vector<std::int64_t> words_ = {},
         bool exclusive_ = false)
      : type(type_),
        line(line_),
        src(src_),
        dst(dst_),
        tag(tag_),
        words(std::move(words_)),
        exclusive(exclusive_) {}

  Type type;
  std::uint64_t line;
  std::size_t src;
  std::size_t dst;
  std::uint64_t tag;
  std::vector<std::int64_t> words;
  bool exclusive;

  [[nodiscard]] std::size_t route_key() const override { return dst; }
  [[nodiscard]] std::string describe() const override {
    static const char* names[] = {"GetS", "GetX", "Data", "WbData",
                                  "Inv",  "InvAck", "Fetch", "Done"};
    return std::string(names[static_cast<int>(type)]) + "@" +
           std::to_string(line) + " " + std::to_string(src) + "->" +
           std::to_string(dst);
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("mpl.cohmsg"));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(type));
    h = fnv1a_mix(h, line);
    h = fnv1a_mix(h, src);
    h = fnv1a_mix(h, dst);
    h = fnv1a_mix(h, tag);
    h = fnv1a_words(h, words);
    return fnv1a_mix(h, exclusive ? 1 : 0);
  }
};

/// One burst of a DMA transfer (message-passing substrate, §3.4).
struct DmaChunk final : Payload, pcl::Routable {
  DmaChunk(std::size_t dst_node_, std::uint64_t dst_addr_,
           std::vector<std::int64_t> words_, std::uint64_t xfer_id_,
           bool last_)
      : dst_node(dst_node_),
        dst_addr(dst_addr_),
        words(std::move(words_)),
        xfer_id(xfer_id_),
        last(last_) {}

  std::size_t dst_node;
  std::uint64_t dst_addr;
  std::vector<std::int64_t> words;
  std::uint64_t xfer_id;
  bool last;

  [[nodiscard]] std::size_t route_key() const override { return dst_node; }
  [[nodiscard]] std::string describe() const override {
    return "dma#" + std::to_string(xfer_id) + "->" + std::to_string(dst_node) +
           "@" + std::to_string(dst_addr) + " x" +
           std::to_string(words.size());
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("mpl.dmachunk"));
    h = fnv1a_mix(h, dst_node);
    h = fnv1a_mix(h, dst_addr);
    h = fnv1a_words(h, words);
    h = fnv1a_mix(h, xfer_id);
    return fnv1a_mix(h, last ? 1 : 0);
  }
};

}  // namespace liberty::mpl
