#include "liberty/core/state.hpp"

namespace liberty::core {

std::uint64_t digest_slots(const std::vector<Value>& slots) {
  StateWriter w(StateWriter::digest_only);
  for (const Value& v : slots) w.put(v);
  return w.digest();
}

}  // namespace liberty::core
