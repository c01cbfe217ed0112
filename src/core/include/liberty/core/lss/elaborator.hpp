// Elaborator: the "Liberty Simulator Constructor" of the paper's Figure 1.
//
// "LSE reads the LSS, instantiates module templates into module instances,
// and weaves the specification and module instances together to form an
// executable simulator." (§2)
//
// Elaboration walks the parsed specification, evaluating parameters and
// generative constructs (for/if), instantiating templates from the shared
// ModuleRegistry or from LSS-defined hierarchical modules, and connecting
// ports — producing a flat Netlist ready for simulator construction.
// Hierarchical modules are elaborated by inlining: instance "h" of a module
// containing "q" yields the flat instance "h.q", and the module's exported
// ports become aliases resolved at connect time.  This gives the paper's
// hierarchical composition with zero simulation-time overhead.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "liberty/core/lss/ast.hpp"
#include "liberty/core/netlist.hpp"
#include "liberty/core/registry.hpp"
#include "liberty/support/value.hpp"

namespace liberty::core::lss {

class Elaborator {
 public:
  explicit Elaborator(const ModuleRegistry& registry) : registry_(registry) {}

  /// Elaborate `spec` into `netlist`.  `overrides` replaces the default
  /// values of top-level `param` declarations (the host program's knob for
  /// sweeping a specification).  An override whose name matches no
  /// top-level `param` throws ElaborationError naming it and listing the
  /// spec's top-level params.  The netlist is left un-finalized so the
  /// caller may add instrumentation before finalize().
  void elaborate(const Spec& spec, Netlist& netlist,
                 const std::map<std::string, liberty::Value>& overrides = {});

 private:
  const ModuleRegistry& registry_;
};

/// One-call convenience: parse `source`, elaborate it against `registry`,
/// and finalize the netlist.
void build_from_lss(std::string_view source, const std::string& filename,
                    Netlist& netlist, const ModuleRegistry& registry,
                    const std::map<std::string, liberty::Value>& overrides = {});

}  // namespace liberty::core::lss
