// Integration: miniature versions of the paper's Figure-2 systems run as
// tests, under both schedulers — the cross-library composability claims as
// executable checks.
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "liberty/ccl/ccl.hpp"
#include "liberty/core/lss/elaborator.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/mpl/mpl.hpp"
#include "liberty/nil/nil.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/upl/upl.hpp"
#include "test_util.hpp"

namespace {

using liberty::Payload;
using liberty::Value;
using liberty::core::Netlist;
using liberty::core::Params;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::test::params;

/// Every library in one catalog (test_util::registry() carries only PCL so
/// kernel-level tests need not link the world).
liberty::core::ModuleRegistry& full_registry() {
  static liberty::core::ModuleRegistry r = [] {
    liberty::core::ModuleRegistry reg;
    liberty::pcl::register_pcl(reg);
    liberty::upl::register_upl(reg);
    liberty::ccl::register_ccl(reg);
    liberty::mpl::register_mpl(reg);
    liberty::nil::register_nil(reg);
    return reg;
  }();
  return r;
}

class Integration : public ::testing::TestWithParam<SchedulerKind> {};
INSTANTIATE_TEST_SUITE_P(BothSchedulers, Integration,
                         ::testing::Values(SchedulerKind::Dynamic,
                                           SchedulerKind::Static),
                         [](const auto& info) {
                           return info.param == SchedulerKind::Dynamic
                                      ? "Dynamic"
                                      : "Static";
                         });

// ---------------------------------------------------------------------------
// Figure 2(a): two coherent cores + directory on a mesh compute a parallel
// sum through shared memory.
// ---------------------------------------------------------------------------

TEST_P(Integration, CmpParallelSumThroughCoherentMemory) {
  Netlist nl;
  auto mesh = liberty::ccl::build_mesh(nl, "noc", 2, 2);
  constexpr int kHome = 3;
  std::vector<liberty::upl::SimpleCpu*> cpus;

  const char* progs[2] = {
      // Core 0: sum 0..19 into 512, set flag 516... then read partner's.
      "  li r1, 0\n  li r2, 0\n  li r3, 20\n"
      "l0:\n  add r1, r1, r2\n  addi r2, r2, 1\n  blt r2, r3, l0\n"
      "  sw r1, 512(r0)\n  li r4, 1\n  sw r4, 520(r0)\n"
      "s0:\n  lw r5, 524(r0)\n  beq r5, r0, s0\n"
      "  lw r6, 516(r0)\n  add r7, r1, r6\n  out r7\n  halt\n",
      // Core 1: sum 20..39 into 516, set flag 524, wait for 520.
      "  li r1, 0\n  li r2, 20\n  li r3, 40\n"
      "l1:\n  add r1, r1, r2\n  addi r2, r2, 1\n  blt r2, r3, l1\n"
      "  sw r1, 516(r0)\n  li r4, 1\n  sw r4, 524(r0)\n"
      "s1:\n  lw r5, 520(r0)\n  beq r5, r0, s1\n"
      "  lw r6, 512(r0)\n  add r7, r1, r6\n  out r7\n  halt\n"};

  for (int i = 0; i < 2; ++i) {
    auto& cpu = nl.make<liberty::upl::SimpleCpu>("gp" + std::to_string(i),
                                                 Params());
    auto& l1 = nl.make<liberty::mpl::DirCache>(
        "l1_" + std::to_string(i),
        params({{"id", i}, {"sets", 8}, {"line_words", 4},
                {"home0", kHome}}));
    auto& ni = nl.make<liberty::nil::FabricAdapter>(
        "ni" + std::to_string(i), params({{"id", i}, {"vcs", 1}}));
    cpu.set_program(liberty::upl::assemble(progs[i]));
    cpus.push_back(&cpu);
    nl.connect(cpu.out("mem_req"), l1.in("cpu_req"));
    nl.connect(l1.out("cpu_resp"), cpu.in("mem_resp"));
    nl.connect(l1.out("msg_out"), ni.in("msg_in"));
    nl.connect(ni.out("msg_out"), l1.in("msg_in"));
    nl.connect_at(ni.out("net_out"), 0, mesh.inject_port(i), 0);
    nl.connect_at(mesh.eject_port(i), 0, ni.in("net_in"), 0);
  }
  auto& dir = nl.make<liberty::mpl::DirectoryCtl>(
      "dir", params({{"id", kHome}, {"home0", kHome}, {"line_words", 4}}));
  auto& dni = nl.make<liberty::nil::FabricAdapter>(
      "dni", params({{"id", kHome}, {"vcs", 1}}));
  nl.connect(dir.out("msg_out"), dni.in("msg_in"));
  nl.connect(dni.out("msg_out"), dir.in("msg_in"));
  nl.connect_at(dni.out("net_out"), 0, mesh.inject_port(kHome), 0);
  nl.connect_at(mesh.eject_port(kHome), 0, dni.in("net_in"), 0);
  nl.finalize();

  Simulator sim(nl, GetParam());
  std::uint64_t cycles = 0;
  while (cycles < 400'000 && !(cpus[0]->halted() && cpus[1]->halted())) {
    sim.step();
    ++cycles;
  }
  ASSERT_TRUE(cpus[0]->halted() && cpus[1]->halted());
  const std::int64_t total = (39 * 40) / 2;  // sum 0..39
  EXPECT_EQ(cpus[0]->output().at(0), total);
  EXPECT_EQ(cpus[1]->output().at(0), total);
}

// ---------------------------------------------------------------------------
// Figure 2(c): DMA halo exchange over a ring, through fabric adapters.
// ---------------------------------------------------------------------------

TEST_P(Integration, GridRingShiftVerifies) {
  constexpr std::size_t kBoards = 4;
  Netlist nl;
  auto ring = liberty::ccl::build_ring(nl, "fab", kBoards);
  std::vector<liberty::pcl::MemoryArray*> mems;
  std::vector<liberty::mpl::DmaCtl*> dmas;
  for (std::size_t i = 0; i < kBoards; ++i) {
    auto& mem = nl.make<liberty::pcl::MemoryArray>(
        "mem" + std::to_string(i), params({{"latency", 1}}));
    auto& dma = nl.make<liberty::mpl::DmaCtl>("dma" + std::to_string(i),
                                              Params());
    auto& ni = nl.make<liberty::nil::FabricAdapter>(
        "ni" + std::to_string(i),
        params({{"id", static_cast<int>(i)}, {"vcs", 1}}));
    mems.push_back(&mem);
    dmas.push_back(&dma);
    nl.connect(dma.out("mem_req"), mem.in("req"));
    nl.connect(mem.out("resp"), dma.in("mem_resp"));
    nl.connect(dma.out("net_out"), ni.in("msg_in"));
    nl.connect(ni.out("msg_out"), dma.in("net_in"));
    nl.connect_at(ni.out("net_out"), 0, ring.inject_port(i), 0);
    nl.connect_at(ring.eject_port(i), 0, ni.in("net_in"), 0);
  }
  nl.finalize();
  for (std::size_t i = 0; i < kBoards; ++i) {
    for (int w = 0; w < 6; ++w) {
      mems[i]->poke(50 + static_cast<std::uint64_t>(w),
                    static_cast<std::int64_t>(i * 100 + w));
    }
    dmas[i]->start_transfer(50, (i + 1) % kBoards, 80, 6);
  }
  Simulator sim(nl, GetParam());
  std::uint64_t cycles = 0;
  while (cycles < 50'000) {
    bool done = true;
    for (auto* d : dmas) done = done && d->rx_done() && !d->tx_busy();
    if (done) break;
    sim.step();
    ++cycles;
  }
  for (std::size_t i = 0; i < kBoards; ++i) {
    const std::size_t from = (i + kBoards - 1) % kBoards;
    for (int w = 0; w < 6; ++w) {
      EXPECT_EQ(mems[i]->peek(80 + static_cast<std::uint64_t>(w)),
                static_cast<std::int64_t>(from * 100 + w))
          << "board " << i << " word " << w;
    }
  }
}

// ---------------------------------------------------------------------------
// LSS-built network: generators and sinks around a bus, entirely from a
// specification string, using three libraries from the shared catalog.
// ---------------------------------------------------------------------------

TEST_P(Integration, LssDrivesCrossLibraryComposition) {
  const char* spec = R"(
    param SENDERS = 3;
    instance bus : ccl.bus { occupancy = 2; broadcast = false; };
    for i in 0 .. SENDERS {
      instance gen[i] : ccl.traffic_gen {
        id = i; nodes = SENDERS + 1; pattern = "fixed"; dst = SENDERS;
        rate = 0.5; count = 15; seed = i + 1;
      };
      connect gen[i].out -> bus.in;
    }
    instance q : pcl.queue { depth = 4; };
    instance sink : ccl.traffic_sink { stop_after = 45; };
    connect bus.out -> q.in;
    connect q.out -> sink.in;
  )";
  Netlist nl;
  liberty::core::lss::build_from_lss(spec, "t.lss", nl, full_registry());
  Simulator sim(nl, GetParam());
  sim.run(5000);
  auto* sink =
      dynamic_cast<liberty::ccl::TrafficSink*>(nl.find("sink"));
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->received(), 45u);
}

// ---------------------------------------------------------------------------
// Programmable NIC to programmable NIC over a lossy-free wire: a frame
// composed by one firmware lands in the other host's RX ring.
// ---------------------------------------------------------------------------

TEST_P(Integration, TwoNicsExchangeFramesOverAWire) {
  Netlist nl;
  liberty::nil::NicFirmwareConfig cfg;
  std::vector<liberty::pcl::MemoryArray*> hosts;
  std::vector<liberty::nil::ProgrammableNic> nics;
  for (int i = 0; i < 2; ++i) {
    auto& host = nl.make<liberty::pcl::MemoryArray>(
        "host" + std::to_string(i),
        params({{"latency", 1}, {"mshrs", 4}, {"ports", 2}}));
    auto nic = liberty::nil::build_programmable_nic(
        nl, "nic" + std::to_string(i), /*mac=*/static_cast<std::uint64_t>(i),
        cfg);
    nl.connect_at(nic.core->out("mem_req"), 0, host.in("req"), 0);
    nl.connect_at(host.out("resp"), 0, nic.core->in("mem_resp"), 0);
    nl.connect_at(nic.assist->out("host_req"), 0, host.in("req"), 1);
    nl.connect_at(host.out("resp"), 1, nic.assist->in("host_resp"), 0);
    hosts.push_back(&host);
    nics.push_back(nic);
  }
  nl.connect(nics[0].assist->out("net_tx"), nics[1].assist->in("net_rx"));
  nl.connect(nics[1].assist->out("net_tx"), nics[0].assist->in("net_rx"));
  nl.finalize();

  // Host 0 posts a TX descriptor to MAC 1; host 1 posts an RX buffer.
  const auto tx0 = static_cast<std::uint64_t>(cfg.tx_ring);
  const auto rx0 = static_cast<std::uint64_t>(cfg.rx_ring);
  for (int w = 0; w < 3; ++w) {
    hosts[0]->poke(100 + static_cast<std::uint64_t>(w), 42 + w);
  }
  hosts[0]->poke(tx0 + 0, 100);
  hosts[0]->poke(tx0 + 1, 3);
  hosts[0]->poke(tx0 + 3, 1);  // destination MAC 1
  hosts[1]->poke(rx0 + 0, 200);
  hosts[1]->poke(rx0 + 2, 1);  // free buffer
  hosts[0]->poke(tx0 + 2, 1);  // go

  Simulator sim(nl, GetParam());
  std::uint64_t cycles = 0;
  while (cycles < 30'000 && hosts[1]->peek(rx0 + 2) != 2) {
    sim.step();
    ++cycles;
  }
  ASSERT_EQ(hosts[1]->peek(rx0 + 2), 2) << "frame never landed";
  EXPECT_EQ(hosts[1]->peek(rx0 + 3), 0);  // source MAC
  for (int w = 0; w < 3; ++w) {
    EXPECT_EQ(hosts[1]->peek(200 + static_cast<std::uint64_t>(w)), 42 + w);
  }
}

}  // namespace

namespace {

// ---------------------------------------------------------------------------
// A full structural 5-stage CPU from pure LSS: stages rendezvous on their
// netlist under the "core" key, the program is an LSS string parameter.
// ---------------------------------------------------------------------------

TEST(IntegrationLss, StructuralCpuFromSpecRetiresProgram) {
  const char* spec = R"(
    instance f : upl.fetch {
      core = "t_cpu";
      predictor = "bimodal";
      program = "  li r1, 0
  li r2, 1
  li r3, 50
loop:
  add r1, r1, r2
  addi r2, r2, 1
  bge r3, r2, loop
  out r1
  halt
";
    };
    instance d : upl.decode { core = "t_cpu"; };
    instance x : upl.execute { core = "t_cpu"; };
    instance m : upl.mem { core = "t_cpu"; };
    instance w : upl.writeback { core = "t_cpu"; };
    instance l1 : upl.cache { sets = 8; ways = 2; line_words = 4; };
    instance mc : upl.memctl { latency = 8; line_words = 4; };
    connect f.out -> d.in;
    connect d.out -> x.in;
    connect x.out -> m.in;
    connect m.out -> w.in;
    connect x.resolve -> f.resolve;
    connect m.dreq -> l1.cpu_req;
    connect l1.cpu_resp -> m.dresp;
    connect l1.mem_req -> mc.req;
    connect mc.resp -> l1.mem_resp;
  )";
  Netlist nl;
  liberty::core::lss::build_from_lss(spec, "cpu.lss", nl, full_registry());
  Simulator sim(nl, SchedulerKind::Static);
  sim.run(50'000);
  const auto& state =
      dynamic_cast<const liberty::upl::FetchStage&>(nl.get("f")).state();
  ASSERT_NE(state, nullptr);
  // Every stage of the core holds the one state the netlist shares.
  for (const char* stage : {"d", "x", "m", "w"}) {
    EXPECT_EQ(dynamic_cast<const liberty::upl::detail::StageBase&>(
                  nl.get(stage))
                  .state(),
              state)
        << stage;
  }
  EXPECT_TRUE(state->halted);
  ASSERT_EQ(state->output.size(), 1u);
  EXPECT_EQ(state->output[0], 50 * 51 / 2);
}

}  // namespace
