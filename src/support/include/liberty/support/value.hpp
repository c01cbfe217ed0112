// The domain-neutral data value that travels across Liberty connections.
//
// The paper's component contract requires that "components developed for one
// domain can be combined with components developed independently for
// another".  The kernel therefore cannot bake in any domain type (flit,
// instruction, cache message, ...).  Value is a small variant covering the
// scalar types the primitive library needs, plus a shared pointer to an
// immutable, polymorphic Payload for everything else.  Component libraries
// define their own Payload subclasses (ccl::Flit, upl::InstrToken, ...) and
// transport them opaquely through domain-independent primitives such as
// queues, arbiters, and crossbars.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

#include "liberty/support/digest.hpp"
#include "liberty/support/error.hpp"

namespace liberty {

/// Base class for structured data carried by a Value.  Payloads are
/// immutable once published onto a connection; modules share them by
/// shared_ptr<const Payload>, so copying a Value never copies domain data.
class Payload {
 public:
  virtual ~Payload() = default;

  /// Human-readable rendering used by tracing and the visualizer export.
  /// Display only: digests never read it unless digest() is left default.
  [[nodiscard]] virtual std::string describe() const { return "<payload>"; }

  /// Fold this payload's content into a running FNV-1a digest (trace and
  /// state digests, the differential oracle's comparison point).  Override
  /// it to fold a type tag (digest_tag) and then every field the payload's
  /// checkpoint codec writes — nested Values through digest_value — so a
  /// change to any field changes the digest.  The fold must take no lock,
  /// allocate nothing and format no string: the oracle digests on several
  /// threads at once.  The default folds the describe() bytes, which is
  /// blind to every field describe() leaves out.
  [[nodiscard]] virtual std::uint64_t digest(std::uint64_t h) const;
};

/// A dynamically typed value.  Monostate means "present but carries no
/// information" (a pure token); it is distinct from the *absence* of data,
/// which the kernel models at the signal level.
class Value {
 public:
  using Variant = std::variant<std::monostate, bool, std::int64_t, double,
                               std::string, std::shared_ptr<const Payload>>;

  Value() = default;
  Value(bool b) : v_(b) {}                          // NOLINT(google-explicit-constructor)
  Value(std::int64_t i) : v_(i) {}                  // NOLINT
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}        // NOLINT
  Value(unsigned i) : v_(static_cast<std::int64_t>(i)) {}   // NOLINT
  Value(std::uint64_t i) : v_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(double d) : v_(d) {}                        // NOLINT
  Value(std::string s) : v_(std::move(s)) {}        // NOLINT
  Value(const char* s) : v_(std::string(s)) {}      // NOLINT
  Value(std::shared_ptr<const Payload> p) : v_(std::move(p)) {}  // NOLINT

  /// Construct a Value holding a freshly built payload of type T.
  template <typename T, typename... Args>
  [[nodiscard]] static Value make(Args&&... args) {
    return Value(std::static_pointer_cast<const Payload>(
        std::make_shared<const T>(std::forward<Args>(args)...)));
  }

  [[nodiscard]] bool is_token() const noexcept {
    return std::holds_alternative<std::monostate>(v_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(v_);
  }
  [[nodiscard]] bool is_int() const noexcept {
    return std::holds_alternative<std::int64_t>(v_);
  }
  [[nodiscard]] bool is_real() const noexcept {
    return std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_payload() const noexcept {
    return std::holds_alternative<std::shared_ptr<const Payload>>(v_);
  }

  [[nodiscard]] bool as_bool() const {
    if (const auto* b = std::get_if<bool>(&v_)) return *b;
    if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i != 0;
    throw SimulationError("Value is not a bool: " + to_string());
  }
  [[nodiscard]] std::int64_t as_int() const {
    if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
    if (const auto* b = std::get_if<bool>(&v_)) return *b ? 1 : 0;
    throw SimulationError("Value is not an int: " + to_string());
  }
  [[nodiscard]] double as_real() const {
    if (const auto* d = std::get_if<double>(&v_)) return *d;
    if (const auto* i = std::get_if<std::int64_t>(&v_)) {
      return static_cast<double>(*i);
    }
    throw SimulationError("Value is not a real: " + to_string());
  }
  [[nodiscard]] const std::string& as_string() const {
    if (const auto* s = std::get_if<std::string>(&v_)) return *s;
    throw SimulationError("Value is not a string: " + to_string());
  }

  /// Downcast the payload to T.  Throws SimulationError when the value does
  /// not carry a T — a component wiring bug the user must see immediately.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> as() const {
    const auto* p = std::get_if<std::shared_ptr<const Payload>>(&v_);
    if (p != nullptr) {
      auto cast = std::dynamic_pointer_cast<const T>(*p);
      if (cast) return cast;
    }
    throw SimulationError("Value payload type mismatch: " + to_string());
  }

  /// Like as<T>() but returns nullptr instead of throwing.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> try_as() const noexcept {
    const auto* p = std::get_if<std::shared_ptr<const Payload>>(&v_);
    if (p == nullptr) return nullptr;
    return std::dynamic_pointer_cast<const T>(*p);
  }

  [[nodiscard]] const Variant& raw() const noexcept { return v_; }

  /// Structural equality.  Payloads compare by pointer identity: the kernel
  /// uses equality only to tolerate idempotent re-drives of a signal, and a
  /// module re-driving the same payload object is exactly that case.
  [[nodiscard]] bool operator==(const Value& o) const noexcept {
    return v_ == o.v_;
  }

  [[nodiscard]] std::string to_string() const;

 private:
  Variant v_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Fold a single Value into a running FNV-1a digest by content, never by
/// pointer identity: its variant index as a type tag, so e.g. int 1 and
/// bool true differ, then its content (a payload through
/// Payload::digest).
[[nodiscard]] std::uint64_t digest_value(std::uint64_t h, const Value& v);

}  // namespace liberty
