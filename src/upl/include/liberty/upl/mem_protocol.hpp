// Line-granularity memory protocol shared by UPL caches, MPL coherence
// controllers, and memory controllers.
//
// CPU-side traffic uses the word-granularity pcl::MemReq/MemResp; below the
// first cache everything moves in lines.  Messages implement pcl::Routable
// (keyed by requester id) so the same PCL crossbars/demuxes route them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/value.hpp"

namespace liberty::upl {

/// Downstream request: fetch a line or write one back.
struct LineReq final : Payload, pcl::Routable {
  enum class Kind : std::uint8_t { Fetch, FetchExclusive, Writeback };

  LineReq(Kind kind_, std::uint64_t line_, std::uint64_t tag_,
          std::size_t requester_, std::vector<std::int64_t> words_ = {})
      : kind(kind_),
        line(line_),
        tag(tag_),
        requester(requester_),
        words(std::move(words_)) {}

  Kind kind;
  std::uint64_t line;       // base word address of the line
  std::uint64_t tag;        // matches the eventual LineResp
  std::size_t requester;    // cache/controller id (routing + coherence)
  std::vector<std::int64_t> words;  // payload for Writeback

  [[nodiscard]] std::size_t route_key() const override { return requester; }
  [[nodiscard]] std::string describe() const override {
    const char* k = kind == Kind::Fetch ? "fetch"
                    : kind == Kind::FetchExclusive ? "fetchx"
                                                   : "wb";
    return std::string(k) + "@" + std::to_string(line) + "#" +
           std::to_string(tag);
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("upl.linereq"));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(kind));
    h = fnv1a_mix(h, line);
    h = fnv1a_mix(h, tag);
    h = fnv1a_mix(h, requester);
    return fnv1a_words(h, words);
  }
};

/// Downstream response: the filled line.
struct LineResp final : Payload, pcl::Routable {
  LineResp(std::uint64_t line_, std::uint64_t tag_, std::size_t requester_,
           std::vector<std::int64_t> words_, bool exclusive_ = false)
      : line(line_),
        tag(tag_),
        requester(requester_),
        words(std::move(words_)),
        exclusive(exclusive_) {}

  std::uint64_t line;
  std::uint64_t tag;
  std::size_t requester;
  std::vector<std::int64_t> words;
  bool exclusive;  // coherence: granted in M/E rather than S

  [[nodiscard]] std::size_t route_key() const override { return requester; }
  [[nodiscard]] std::string describe() const override {
    return "fill@" + std::to_string(line) + "#" + std::to_string(tag);
  }
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const override {
    h = fnv1a_mix(h, digest_tag("upl.lineresp"));
    h = fnv1a_mix(h, line);
    h = fnv1a_mix(h, tag);
    h = fnv1a_mix(h, requester);
    h = fnv1a_words(h, words);
    return fnv1a_mix(h, exclusive ? 1 : 0);
  }
};

}  // namespace liberty::upl
