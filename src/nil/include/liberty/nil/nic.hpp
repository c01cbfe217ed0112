// The programmable network interface (§3.5).
//
// "We are currently developing a network interface simulator, with an
// initial target of properly modeling the MIPS-based Tigon-2 programmable
// network interface chipset at a level of detail sufficient to simulate the
// firmware that supports its deployment as a Gigabit Ethernet interface."
//
// The reproduction models the same organization with LRISC in place of
// MIPS (see DESIGN.md, Substitutions):
//
//   * NicAssist — the NIC's hardware assists: a register block (driven by
//     the firmware core through MMIO), a host-memory DMA engine speaking
//     pcl::MemReq, and MAC tx/rx ports carrying EthFrame values with FCS
//     generation/checking.
//   * firmware — an LRISC program (nic_firmware()) running on a
//     upl::SimpleCpu, servicing descriptor rings exactly the way the
//     Tigon-2 firmware services its send/receive rings: poll the TX ring
//     for ready descriptors, command the assist to DMA the payload and
//     transmit, complete the descriptor; poll RX status, allocate from the
//     RX ring, command the DMA into the host buffer, complete.
//   * build_programmable_nic() — assembles core + assist and wires MMIO.
//
// Host-side protocol (word-addressed host memory):
//   TX ring at `tx_ring`, N descriptors of 3 words: [addr, len, status]
//   (status: 0 empty, 1 ready, 2 done).  RX ring at `rx_ring`, same
//   layout; the host pre-fills addr with a buffer and status 1 (free),
//   the NIC writes len and status 2 (filled) plus the payload.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "liberty/core/mmio.hpp"
#include "liberty/core/module.hpp"
#include "liberty/core/netlist.hpp"
#include "liberty/core/params.hpp"
#include "liberty/nil/ethernet.hpp"
#include "liberty/upl/simple_cpu.hpp"

namespace liberty::nil {

/// Hardware assists of the programmable NIC.
///
/// Ports: host_req/host_resp (DMA to host memory, pcl::MemReq), net_tx
/// (out, EthFrame), net_rx (in, EthFrame).
///
/// Register block (offsets for mmio_read/mmio_write):
///    0 dma_addr     host address for the next DMA
///    1 dma_len
///    2 dma_cmd      write 1 = gather+transmit (uses tx_dst as dest MAC);
///                   write 2 = scatter the head RX frame to dma_addr
///    3 dma_status   read: 1 while a DMA/transmit is in flight
///    4 tx_dst       destination MAC for the next transmit
///    5 rx_status    read: number of received frames waiting
///    6 rx_len       read: payload length of the head RX frame
///    7 rx_src       read: source MAC of the head RX frame
///    8 mac          this NIC's MAC address (r/w)
///    9 rx_pop       write 1: drop the head RX frame (after scatter)
///
/// Parameters: mac (station address)    [0]
/// Stats: tx_frames, rx_frames, crc_errors, dma_words.
///
/// The register block is exposed through the core::MmioDevice interface,
/// so a NetSpec can bind the assist into any MmioHost declaratively.
class NicAssist : public liberty::core::Module,
                  public liberty::core::MmioDevice {
 public:
  NicAssist(const std::string& name, const liberty::core::Params& params);

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] std::int64_t mmio_read(std::uint64_t reg) override;
  void mmio_write(std::uint64_t reg, std::int64_t v) override;

 private:
  enum class DmaMode : std::uint8_t { Idle, Gather, Scatter };

  liberty::core::Port& host_req_;
  liberty::core::Port& host_resp_;
  liberty::core::Port& net_tx_;
  liberty::core::Port& net_rx_;

  std::uint64_t mac_;

  // Register file.
  std::uint64_t dma_addr_ = 0;
  std::uint64_t dma_len_ = 0;
  std::uint64_t tx_dst_ = 0;

  // DMA engine state.
  DmaMode mode_ = DmaMode::Idle;
  std::uint64_t dma_done_ = 0;
  std::vector<std::int64_t> dma_buf_;
  std::deque<liberty::Value> memq_;
  bool mem_in_flight_ = false;

  // Frame queues.
  std::deque<liberty::Value> txq_;                       // ready to send
  std::deque<std::shared_ptr<const EthFrame>> rxq_;      // received, good FCS

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* tx_frames_stat_ = nullptr;
  liberty::Counter* dma_words_stat_ = nullptr;
};

/// A fully assembled programmable NIC.
struct ProgrammableNic {
  upl::SimpleCpu* core = nullptr;  // runs the firmware
  NicAssist* assist = nullptr;
};

/// Firmware parameters baked into the generated LRISC program.
struct NicFirmwareConfig {
  int tx_ring = 8192;    // host address of the TX descriptor ring
  int rx_ring = 8448;    // host address of the RX descriptor ring
  int ring_entries = 8;  // descriptors per ring
  int mmio_base = 61440; // where the assist registers are mapped (0xF000)
};

/// The LRISC firmware servicing both rings (see file comment).
[[nodiscard]] std::string nic_firmware(const NicFirmwareConfig& cfg);

/// Build "<prefix>.core" (SimpleCpu running nic_firmware) and
/// "<prefix>.assist", map the assist's registers into the core at
/// cfg.mmio_base, and return both.  The caller connects:
///   assist.host_req/host_resp  -> the host memory,
///   assist.net_tx/net_rx       -> the wire (link, channel, fabric).
ProgrammableNic build_programmable_nic(liberty::core::Netlist& netlist,
                                       const std::string& prefix,
                                       std::uint64_t mac,
                                       const NicFirmwareConfig& cfg = {});

}  // namespace liberty::nil
