// Small PCL primitives: Probe (pass-through instrumentation), FuncMap
// (combinational transform), Fork helper constants.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"

namespace liberty::pcl {

/// Transparent wire with instrumentation: forwards its input to its output
/// combinationally, counting items and invoking an optional observer.
/// Dropping a Probe onto any connection is the LSS user's oscilloscope.
class Probe : public liberty::core::Module {
 public:
  using Observer =
      std::function<void(const liberty::Value&, liberty::core::Cycle)>;

  Probe(const std::string& name, const liberty::core::Params& params);

  void react() override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void declare_opt(liberty::core::OptTraits& traits) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  void set_observer(Observer obs) { obs_ = std::move(obs); }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  liberty::core::Port& in_;
  liberty::core::Port& out_;
  Observer obs_;
  std::uint64_t count_ = 0;
  liberty::Counter* items_stat_ = nullptr;  // resolved-once stat handle
};

/// Combinational value transform: out = fn(in).  The transform is an
/// algorithmic parameter; the default is identity.
class FuncMap : public liberty::core::Module {
 public:
  using Fn = std::function<liberty::Value(const liberty::Value&)>;

  FuncMap(const std::string& name, const liberty::core::Params& params);

  void react() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void declare_opt(liberty::core::OptTraits& traits) const override;

  void set_fn(Fn fn) { fn_ = std::move(fn); }

 private:
  liberty::core::Port& in_;
  liberty::core::Port& out_;
  Fn fn_;
};

}  // namespace liberty::pcl
