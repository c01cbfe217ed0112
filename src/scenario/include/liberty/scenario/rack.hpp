// The flagship rack-scale scenario (docs/scenarios.md).
//
// rack_netspec() composes every library in the repository into one
// parameterized simulated rack, expressed as a testing::NetSpec so the
// identical system elaborates under every scheduler, snapshots,
// bisects, and fuzzes like any other differential-test target:
//
//   * per node: a trace-driven host (TraceSource/TraceSink + a
//     pcl::MemoryArray as host memory), the NIL's programmable NIC
//     (LRISC firmware core + DMA/MAC assist bound through the MMIO seam),
//     and a nil::FabricAdapter onto the rack fabric;
//   * per node: a multicore compute plane — upl::SimpleCpu cores behind
//     mpl::OrderingCtl (SC or TSO) and mpl::DirCache L1s, exchanging
//     directory-protocol CohMsg traffic over a ccl::Bus with the node's
//     mpl::DirectoryCtl home, plus one behavioral upl::OoOCore running the
//     same worker program at a different abstraction level (§2.2);
//   * rack-wide: a cols x rows ccl wormhole mesh (the same wiring as
//     ccl::build_mesh, spelled with pinned NetSpec endpoints).
//
// This is the paper's thesis exercised end to end: five libraries, three
// abstraction levels, one structurally composed system.
#pragma once

#include <cstdint>
#include <string>

#include "liberty/core/netlist.hpp"
#include "liberty/core/registry.hpp"
#include "liberty/scenario/trace.hpp"
#include "liberty/testing/netspec.hpp"

namespace liberty::scenario {

/// Shape of one rack.  Node count is mesh_cols * mesh_rows (>= 2 so
/// traffic has somewhere to go).
struct RackConfig {
  std::size_t mesh_cols = 2;
  std::size_t mesh_rows = 2;
  std::size_t cores = 2;        // coherent SimpleCpu cores per node
  bool with_ooo = true;         // one behavioral OoO core per node
  std::string ordering = "tso";  // sc | tso
  std::size_t vcs = 2;          // fabric virtual channels
  std::int64_t link_latency = 1;
  std::size_t worker_iters = 32;  // read-modify-write loop length per core

  // Workload: `trace` text if nonempty, else a synthetic trace from
  // (seed, requests_per_node).
  std::string trace;
  std::uint64_t seed = 1;
  std::size_t requests_per_node = 4;

  liberty::core::Cycle cycles = 20000;

  [[nodiscard]] std::size_t nodes() const noexcept {
    return mesh_cols * mesh_rows;
  }
  /// Short identity tag for reports ("rack-2x2c2-tso-s1").
  [[nodiscard]] std::string tag() const;
};

/// The rack as a rebuildable spec.  Throws ElaborationError on a bad
/// config (fewer than 2 nodes, a cols * rows that overflows, nodes x cores
/// or nodes x requests_per_node above core::lss::kMaxElaborationSteps,
/// unknown ordering mode, ...) before it allocates anything.
[[nodiscard]] liberty::testing::NetSpec rack_netspec(const RackConfig& cfg);

/// The LRISC read-modify-write worker run by the compute planes; exposed
/// for tests that want to cross-check against the functional emulator.
[[nodiscard]] std::string worker_program(std::size_t node, std::size_t core,
                                         std::size_t cores,
                                         std::size_t iters);

/// A randomized small rack for the seeded fuzz family: geometry, core
/// count, ordering mode, VC count, and workload all derive from `seed`.
[[nodiscard]] liberty::testing::NetSpec fuzz_rack_netspec(std::uint64_t seed);

/// Aggregated Orion energy and thermal figures for a simulated rack.
struct RackPowerReport {
  double router_dynamic_pj = 0.0;
  double router_leakage_pj = 0.0;
  double router_total_pj = 0.0;
  double peak_temperature_c = 0.0;  // hottest router, lifetime peak
  double max_temperature_c = 0.0;   // hottest router, end of run
};

/// Collect the report from an elaborated rack netlist (by module name, so
/// it works on any netlist built from rack_netspec(cfg)).
[[nodiscard]] RackPowerReport rack_power_report(
    const liberty::core::Netlist& netlist, const RackConfig& cfg);

/// Register scenario.trace_source / scenario.trace_sink.
void register_scenario(liberty::core::ModuleRegistry& registry);

/// Register every library a rack needs: pcl, upl, ccl, mpl, nil, scenario.
void register_rack_libraries(liberty::core::ModuleRegistry& registry);

}  // namespace liberty::scenario
