#include "liberty/core/state.hpp"

#include <variant>

namespace liberty::core {

namespace {

std::uint64_t mix_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace

std::uint64_t digest_value(std::uint64_t h, const Value& v) {
  h = fnv1a_mix(h, static_cast<std::uint64_t>(v.raw().index()));
  if (v.is_bool()) return fnv1a_mix(h, v.as_bool() ? 1 : 0);
  if (v.is_int()) {
    return fnv1a_mix(h, static_cast<std::uint64_t>(v.as_int()));
  }
  if (v.is_real()) {
    const double d = v.as_real();
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return fnv1a_mix(h, bits);
  }
  if (v.is_string()) {
    const std::string& s = v.as_string();
    return mix_bytes(h, s.data(), s.size());
  }
  if (v.is_payload()) {
    // Content digest, never pointer identity: two independently built
    // simulators must agree on the digest of equivalent states.
    const std::string s = v.to_string();
    return mix_bytes(h, s.data(), s.size());
  }
  return h;  // token
}

std::uint64_t digest_slots(const std::vector<Value>& slots) {
  StateWriter w(StateWriter::digest_only);
  for (const Value& v : slots) w.put(v);
  return w.digest();
}

}  // namespace liberty::core
