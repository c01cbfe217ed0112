// Parameters: the customization interface of module templates.
//
// "Components have algorithmic parameters, parameters whose values describe
// functionality.  Via these parameters, users can inherit the overall
// functionality of a module template, but adapt the specific behavior to the
// system being modeled." (§2.1)
//
// Params is a name -> Value map with typed accessors.  Accesses are
// recorded so that elaboration can reject misspelled parameter names —
// silently ignored parameters are exactly the kind of unnoticed modeling
// error the paper's methodology is designed to eliminate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "liberty/support/error.hpp"
#include "liberty/support/value.hpp"

namespace liberty::core {

class Params {
 public:
  Params() = default;

  Params& set(const std::string& name, Value v) {
    values_[name] = std::move(v);
    return *this;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    touched_.insert(name);
    return values_.count(name) != 0;
  }

  /// Typed getters with a default for absent parameters.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t dflt) const {
    touched_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second.as_int();
  }
  /// A count, size or index: get_int that throws ElaborationError naming
  /// the parameter and its value when it is negative (a negative depth
  /// must not wrap around to an effectively unbounded size_t).
  [[nodiscard]] std::size_t get_size(const std::string& name,
                                     std::size_t dflt) const {
    const std::int64_t v = get_int(name, static_cast<std::int64_t>(dflt));
    if (v < 0) {
      throw liberty::ElaborationError("parameter '" + name +
                                      "' must be non-negative, got " +
                                      std::to_string(v));
    }
    return static_cast<std::size_t>(v);
  }
  [[nodiscard]] double get_real(const std::string& name, double dflt) const {
    touched_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second.as_real();
  }
  [[nodiscard]] bool get_bool(const std::string& name, bool dflt) const {
    touched_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second.as_bool();
  }
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& dflt) const {
    touched_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second.as_string();
  }

  /// Required variants (no default): throw ElaborationError when missing.
  [[nodiscard]] std::int64_t require_int(const std::string& name) const {
    touched_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw liberty::ElaborationError("missing required parameter '" + name +
                                      "'");
    }
    return it->second.as_int();
  }
  [[nodiscard]] std::string require_string(const std::string& name) const {
    touched_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw liberty::ElaborationError("missing required parameter '" + name +
                                      "'");
    }
    return it->second.as_string();
  }
  [[nodiscard]] const Value& require(const std::string& name) const {
    touched_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw liberty::ElaborationError("missing required parameter '" + name +
                                      "'");
    }
    return it->second;
  }

  /// Parameters that were set but never read by the module's constructor —
  /// almost always a typo in the specification.
  [[nodiscard]] std::vector<std::string> unused() const {
    std::vector<std::string> out;
    for (const auto& [name, v] : values_) {
      (void)v;
      if (touched_.count(name) == 0) out.push_back(name);
    }
    return out;
  }

  [[nodiscard]] const std::map<std::string, Value>& values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, Value> values_;
  mutable std::set<std::string> touched_;
};

}  // namespace liberty::core
