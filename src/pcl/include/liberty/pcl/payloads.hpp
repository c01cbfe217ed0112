// Domain-independent payload types used by PCL primitives.
#pragma once

#include <cstdint>
#include <string>

#include "liberty/support/value.hpp"

namespace liberty::pcl {

/// Payloads that know which output of a demux/crossbar they want.
/// Domain payloads (ccl::Flit, mpl::CoherenceMsg, ...) implement this so
/// that the *same* routing primitive serves every library — the paper's
/// cross-library reuse claim in miniature.
class Routable {
 public:
  virtual ~Routable() = default;
  [[nodiscard]] virtual std::size_t route_key() const = 0;
};

/// Memory transaction request, the protocol of pcl::MemoryArray.
struct MemReq final : Payload {
  enum class Op : std::uint8_t { Read, Write };

  MemReq(Op op_, std::uint64_t addr_, std::int64_t data_ = 0,
         std::uint64_t tag_ = 0)
      : op(op_), addr(addr_), data(data_), tag(tag_) {}

  Op op;
  std::uint64_t addr;
  std::int64_t data;
  std::uint64_t tag;

  [[nodiscard]] std::string describe() const override {
    return (op == Op::Read ? "rd@" : "wr@") + std::to_string(addr) + "#" +
           std::to_string(tag);
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("pcl.memreq"));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(op));
    h = fnv1a_mix(h, addr);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(data));
    return fnv1a_mix(h, tag);
  }
};

/// Memory transaction response.
struct MemResp final : Payload {
  MemResp(std::uint64_t tag_, std::int64_t data_, bool was_write_)
      : tag(tag_), data(data_), was_write(was_write_) {}

  std::uint64_t tag;
  std::int64_t data;
  bool was_write;

  [[nodiscard]] std::string describe() const override {
    return "resp#" + std::to_string(tag) + "=" + std::to_string(data);
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("pcl.memresp"));
    h = fnv1a_mix(h, tag);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(data));
    return fnv1a_mix(h, was_write ? 1 : 0);
  }
};

/// Generic timestamped item: wraps any value with its creation cycle so
/// sinks can measure end-to-end latency without domain knowledge.
struct Stamped final : Payload {
  Stamped(liberty::Value inner_, std::uint64_t born_)
      : inner(std::move(inner_)), born(born_) {}

  liberty::Value inner;
  std::uint64_t born;

  [[nodiscard]] std::string describe() const override {
    return "stamped(" + inner.to_string() + "@" + std::to_string(born) + ")";
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("pcl.stamped"));
    h = digest_value(h, inner);
    return fnv1a_mix(h, born);
  }
};

}  // namespace liberty::pcl
