#include "liberty/support/value.hpp"

#include <bit>
#include <sstream>

namespace liberty {

std::string Value::to_string() const {
  struct Visitor {
    std::string operator()(std::monostate) const { return "<token>"; }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(std::int64_t i) const { return std::to_string(i); }
    std::string operator()(double d) const {
      std::ostringstream os;
      os << d;
      return os.str();
    }
    std::string operator()(const std::string& s) const { return '"' + s + '"'; }
    std::string operator()(const std::shared_ptr<const Payload>& p) const {
      return p ? p->describe() : "<null payload>";
    }
  };
  return std::visit(Visitor{}, v_);
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.to_string();
}

std::uint64_t Payload::digest(std::uint64_t h) const {
  return fnv1a_bytes(h, describe());
}

std::uint64_t digest_value(std::uint64_t h, const Value& v) {
  const Value::Variant& raw = v.raw();
  h = fnv1a_mix(h, static_cast<std::uint64_t>(raw.index()));
  if (const auto* b = std::get_if<bool>(&raw)) return fnv1a_mix(h, *b ? 1 : 0);
  if (const auto* i = std::get_if<std::int64_t>(&raw)) {
    return fnv1a_mix(h, static_cast<std::uint64_t>(*i));
  }
  if (const auto* d = std::get_if<double>(&raw)) {
    return fnv1a_mix(h, std::bit_cast<std::uint64_t>(*d));
  }
  if (const auto* s = std::get_if<std::string>(&raw)) {
    return fnv1a_bytes(h, *s);
  }
  if (const auto* p = std::get_if<std::shared_ptr<const Payload>>(&raw)) {
    return *p ? (*p)->digest(h) : fnv1a_bytes(h, "<null payload>");
  }
  return h;  // token
}

}  // namespace liberty
