#include "liberty/scenario/rack.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "liberty/ccl/ccl.hpp"
#include "liberty/ccl/router.hpp"
#include "liberty/core/lss/parser.hpp"
#include "liberty/core/registry.hpp"
#include "liberty/mpl/mpl.hpp"
#include "liberty/nil/nic.hpp"
#include "liberty/nil/nil.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/scenario/trace_modules.hpp"
#include "liberty/support/error.hpp"
#include "liberty/support/rng.hpp"
#include "liberty/upl/upl.hpp"

namespace liberty::scenario {

using liberty::core::Params;
using liberty::testing::EdgeDecl;
using liberty::testing::MmioDecl;
using liberty::testing::ModuleDecl;
using liberty::testing::NetSpec;

std::string RackConfig::tag() const {
  std::ostringstream os;
  os << "rack-" << mesh_cols << 'x' << mesh_rows << 'c' << cores;
  if (with_ooo) os << "+ooo";
  os << '-' << ordering << "-s" << seed;
  return os.str();
}

std::string worker_program(std::size_t node, std::size_t core,
                           std::size_t cores, std::size_t iters) {
  // A staggered read-modify-write sweep over a small shared region: all of
  // a node's cores increment the same two cache lines, so the directory
  // sees the full MSI repertoire (GetS, GetX, upgrades, invalidations,
  // fetches) under whichever ordering controller fronts the cores.
  const std::size_t base = 256;
  const std::size_t span = 8;  // two 4-word lines
  const std::size_t start = base + (node + core * 3) % span;
  std::ostringstream os;
  os << "  li r1, 0\n"
     << "  li r2, " << start << "\n"
     << "  li r5, " << base << "\n"
     << "  li r6, " << base + span << "\n"
     << "  li r7, " << iters << "\n"
     << "loop:\n"
     << "  lw r3, 0(r2)\n"
     << "  addi r3, r3, 1\n"
     << "  sw r3, 0(r2)\n"
     << "  addi r2, r2, 1\n"
     << "  blt r2, r6, nowrap\n"
     << "  mv r2, r5\n"
     << "nowrap:\n"
     << "  addi r1, r1, 1\n"
     << "  blt r1, r7, loop\n"
     << "  halt\n";
  (void)cores;
  return os.str();
}

NetSpec rack_netspec(const RackConfig& cfg) {
  // The shape is checked before anything is sized from it.  A wrapped
  // cols * rows would pass the node-count check while the mesh loops run
  // over the unwrapped dimensions, and the per-node core planes and
  // synthetic requests are held to the LSS elaboration budget.
  using liberty::core::lss::kMaxElaborationSteps;
  if (cfg.mesh_rows != 0 &&
      cfg.mesh_cols > std::numeric_limits<std::size_t>::max() /
                          cfg.mesh_rows) {
    throw liberty::ElaborationError(
        "scenario.rack: mesh_cols * mesh_rows (" +
        std::to_string(cfg.mesh_cols) + " * " +
        std::to_string(cfg.mesh_rows) + ") overflows");
  }
  const std::size_t nodes = cfg.nodes();
  const auto within_budget = [&](std::size_t per_node, const char* what) {
    if (per_node > kMaxElaborationSteps / nodes) {
      throw liberty::ElaborationError(
          "scenario.rack: " + std::to_string(nodes) + " nodes x " +
          std::to_string(per_node) + " " + what +
          " per node exceeds the elaboration budget of " +
          std::to_string(kMaxElaborationSteps));
    }
  };
  if (nodes < 2) {
    throw liberty::ElaborationError(
        "scenario.rack: need at least 2 nodes (mesh_cols * mesh_rows)");
  }
  if (cfg.cores == 0) {
    throw liberty::ElaborationError("scenario.rack: cores must be >= 1");
  }
  within_budget(cfg.cores, "cores");
  within_budget(cfg.requests_per_node, "requests");
  if (cfg.ordering != "sc" && cfg.ordering != "tso") {
    throw liberty::ElaborationError("scenario.rack: unknown ordering '" +
                                    cfg.ordering + "'");
  }

  const std::string trace_text =
      !cfg.trace.empty()
          ? cfg.trace
          : render_trace(synthetic_trace(TraceConfig{
                nodes, cfg.requests_per_node, cfg.seed, 2, 8, 32, 96}));
  // Validate user-supplied traces up front for a clear error site.
  for (const TraceRequest& r : parse_trace(trace_text)) {
    if (r.src >= nodes || r.dst >= nodes) {
      throw liberty::ElaborationError(
          "scenario.rack: trace request " + std::to_string(r.id) +
          " references a node outside the " + std::to_string(nodes) +
          "-node rack");
    }
  }

  const nil::NicFirmwareConfig fw;  // rings/mmio at their documented homes

  NetSpec spec;
  spec.cycles = cfg.cycles;
  auto add = [&spec](const std::string& type, const std::string& name,
                     Params params) {
    spec.modules.push_back(ModuleDecl{type, name, std::move(params)});
    return spec.modules.size() - 1;
  };
  auto edge = [&spec](std::size_t from, const std::string& from_port,
                      std::size_t from_ep, std::size_t to,
                      const std::string& to_port, std::size_t to_ep) {
    spec.edges.push_back(EdgeDecl{from, from_port, to, to_port, from_ep,
                                  to_ep});
  };

  std::vector<std::size_t> adapters(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::string n = "n" + std::to_string(i);
    const std::int64_t ii = static_cast<std::int64_t>(i);

    // --- NIC plane: host memory, trace endpoints, programmable NIC. ---
    const std::size_t host =
        add("pcl.memory_array", n + ".host",
            Params().set("latency", std::int64_t{1})
                .set("mshrs", std::int64_t{8})
                .set("ports", std::int64_t{4}));
    const std::size_t fw_core =
        add("upl.simple_cpu", n + ".nic.core",
            Params().set("program", nil::nic_firmware(fw)));
    const std::size_t assist =
        add("nil.nic_assist", n + ".nic.assist", Params().set("mac", ii));
    const std::size_t src =
        add("scenario.trace_source", n + ".src",
            Params().set("node", ii).set("trace", trace_text));
    const std::size_t sink =
        add("scenario.trace_sink", n + ".sink", Params().set("node", ii));
    const std::size_t adapter =
        add("nil.fabric_adapter", n + ".nic.adapter",
            Params().set("id", ii).set(
                "vcs", static_cast<std::int64_t>(cfg.vcs)));
    adapters[i] = adapter;

    spec.mmios.push_back(MmioDecl{
        fw_core, assist, static_cast<std::uint64_t>(fw.mmio_base), 16});

    // Host memory endpoints: 0 firmware, 1 DMA assist, 2 source, 3 sink.
    edge(fw_core, "mem_req", 0, host, "req", 0);
    edge(host, "resp", 0, fw_core, "mem_resp", 0);
    edge(assist, "host_req", 0, host, "req", 1);
    edge(host, "resp", 1, assist, "host_resp", 0);
    edge(src, "host_req", 0, host, "req", 2);
    edge(host, "resp", 2, src, "host_resp", 0);
    edge(sink, "host_req", 0, host, "req", 3);
    edge(host, "resp", 3, sink, "host_resp", 0);

    // MAC <-> fabric adapter <-> mesh local port (router endpoint 0).
    edge(assist, "net_tx", 0, adapter, "msg_in", 0);
    edge(adapter, "msg_out", 0, assist, "net_rx", 0);

    // --- Compute plane: cores behind ordering + coherent L1s, a CohMsg
    // bus, and the node's directory home (id = cores). ---
    const std::size_t bus =
        add("ccl.bus", n + ".cohbus", Params().set("broadcast", false));
    for (std::size_t c = 0; c < cfg.cores; ++c) {
      const std::string cn = n + ".cpu" + std::to_string(c);
      const std::int64_t cc = static_cast<std::int64_t>(c);
      const std::size_t cpu =
          add("upl.simple_cpu", cn,
              Params().set("program",
                           worker_program(i, c, cfg.cores,
                                          cfg.worker_iters)));
      const std::size_t ord = add(
          "mpl.ordering", n + ".ord" + std::to_string(c),
          Params().set("mode", cfg.ordering));
      const std::size_t l1 =
          add("mpl.dir_cache", n + ".l1" + std::to_string(c),
              Params().set("id", cc).set(
                  "home0", static_cast<std::int64_t>(cfg.cores)));
      edge(cpu, "mem_req", 0, ord, "cpu_req", 0);
      edge(ord, "cpu_resp", 0, cpu, "mem_resp", 0);
      edge(ord, "mem_req", 0, l1, "cpu_req", 0);
      edge(l1, "cpu_resp", 0, ord, "mem_resp", 0);
      edge(l1, "msg_out", 0, bus, "in", c);
      edge(bus, "out", c, l1, "msg_in", 0);
    }
    const std::size_t dir =
        add("mpl.directory", n + ".dir",
            Params()
                .set("id", static_cast<std::int64_t>(cfg.cores))
                .set("home0", static_cast<std::int64_t>(cfg.cores)));
    edge(dir, "msg_out", 0, bus, "in", cfg.cores);
    edge(bus, "out", cfg.cores, dir, "msg_in", 0);

    if (cfg.with_ooo) {
      // The same worker at a different abstraction level: a behavioral
      // OoO core with its own internal cache and predictor.
      add("upl.ooo_core", n + ".ooo",
          Params()
              .set("program",
                   worker_program(i, cfg.cores, cfg.cores,
                                  cfg.worker_iters))
              .set("stop_on_halt", false)
              .set("max_instrs", std::int64_t{100000}));
    }
  }

  // --- The rack fabric: a cols x rows wormhole mesh, wired exactly like
  // ccl::build_mesh (directions: 1 = east, 2 = west, 3 = north,
  // 4 = south), with each node's adapter on the local port (endpoint 0).
  std::vector<std::size_t> routers(nodes);
  for (std::size_t id = 0; id < nodes; ++id) {
    routers[id] =
        add("ccl.router", "mesh.r" + std::to_string(id),
            Params()
                .set("id", static_cast<std::int64_t>(id))
                .set("nodes", static_cast<std::int64_t>(nodes))
                .set("routing", std::string("xy"))
                .set("cols", static_cast<std::int64_t>(cfg.mesh_cols))
                .set("rows", static_cast<std::int64_t>(cfg.mesh_rows))
                .set("vcs", static_cast<std::int64_t>(cfg.vcs)));
    edge(adapters[id], "net_out", 0, routers[id], "in", 0);
    edge(routers[id], "out", 0, adapters[id], "net_in", 0);
  }
  auto wire = [&](const std::string& name, std::size_t a, std::size_t dir_a,
                  std::size_t b, std::size_t dir_b) {
    const std::size_t link =
        add("ccl.link", name, Params().set("latency", cfg.link_latency));
    edge(routers[a], "out", dir_a, link, "in", 0);
    edge(link, "out", 0, routers[b], "in", dir_b);
  };
  for (std::size_t y = 0; y < cfg.mesh_rows; ++y) {
    for (std::size_t x = 0; x < cfg.mesh_cols; ++x) {
      const std::size_t id = y * cfg.mesh_cols + x;
      if (x + 1 < cfg.mesh_cols) {
        const std::size_t east = id + 1;
        wire("mesh.l" + std::to_string(id) + ".e", id, 1, east, 2);
        wire("mesh.l" + std::to_string(east) + ".w", east, 2, id, 1);
      }
      if (y + 1 < cfg.mesh_rows) {
        const std::size_t south = id + cfg.mesh_cols;
        wire("mesh.l" + std::to_string(id) + ".s", id, 4, south, 3);
        wire("mesh.l" + std::to_string(south) + ".n", south, 3, id, 4);
      }
    }
  }

  return spec;
}

NetSpec fuzz_rack_netspec(std::uint64_t seed) {
  liberty::Rng rng(seed ^ 0x7ac6'5ce7'a11eULL);
  RackConfig cfg;
  cfg.mesh_cols = 2;
  cfg.mesh_rows = 1 + static_cast<std::size_t>(rng.below(2));
  cfg.cores = 1 + static_cast<std::size_t>(rng.below(2));
  cfg.with_ooo = rng.below(2) == 0;
  cfg.ordering = rng.below(2) == 0 ? "sc" : "tso";
  cfg.vcs = 1 + static_cast<std::size_t>(rng.below(2));
  cfg.link_latency = 1 + static_cast<std::int64_t>(rng.below(2));
  cfg.worker_iters = 8 + static_cast<std::size_t>(rng.below(17));
  cfg.requests_per_node = 2 + static_cast<std::size_t>(rng.below(3));
  cfg.seed = seed;
  cfg.cycles = 2500 + static_cast<liberty::core::Cycle>(rng.below(1000));
  return rack_netspec(cfg);
}

RackPowerReport rack_power_report(const liberty::core::Netlist& netlist,
                                  const RackConfig& cfg) {
  RackPowerReport rep;
  for (std::size_t id = 0; id < cfg.nodes(); ++id) {
    const auto* router = dynamic_cast<const liberty::ccl::Router*>(
        netlist.find("mesh.r" + std::to_string(id)));
    if (router == nullptr) continue;
    rep.router_dynamic_pj += router->power().dynamic_pj();
    rep.router_leakage_pj += router->power().leakage_pj();
    rep.router_total_pj += router->power().total_pj();
    rep.peak_temperature_c =
        std::max(rep.peak_temperature_c, router->thermal().peak());
    rep.max_temperature_c =
        std::max(rep.max_temperature_c, router->thermal().temperature());
  }
  return rep;
}

void register_scenario(liberty::core::ModuleRegistry& registry) {
  registry.register_template(
      "scenario.trace_source", "trace-driven request injector (TX ring)",
      liberty::core::simple_factory<TraceSource>());
  registry.register_template(
      "scenario.trace_sink", "RX-ring reaper with end-to-end latency stats",
      liberty::core::simple_factory<TraceSink>());
}

void register_rack_libraries(liberty::core::ModuleRegistry& registry) {
  liberty::pcl::register_pcl(registry);
  liberty::upl::register_upl(registry);
  liberty::ccl::register_ccl(registry);
  liberty::mpl::register_mpl(registry);
  liberty::nil::register_nil(registry);
  register_scenario(registry);
}

}  // namespace liberty::scenario
