#include "liberty/nil/nic.hpp"

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"
#include "liberty/upl/isa.hpp"

namespace liberty::nil {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Netlist;
using liberty::core::Params;
using liberty::pcl::MemReq;
using liberty::pcl::MemResp;

// ---------------------------------------------------------------------------
// NicAssist
// ---------------------------------------------------------------------------

NicAssist::NicAssist(const std::string& name, const Params& params)
    : Module(name),
      host_req_(add_out("host_req", 0, 1)),
      host_resp_(add_in("host_resp", AckMode::AutoAccept, 0, 1)),
      net_tx_(add_out("net_tx", 0, 1)),
      net_rx_(add_in("net_rx", AckMode::AutoAccept, 0, 1)),
      mac_(static_cast<std::uint64_t>(params.get_int("mac", 0))) {}

std::int64_t NicAssist::mmio_read(std::uint64_t reg) {
  switch (reg) {
    case 0: return static_cast<std::int64_t>(dma_addr_);
    case 1: return static_cast<std::int64_t>(dma_len_);
    case 3: return mode_ == DmaMode::Idle ? 0 : 1;
    case 4: return static_cast<std::int64_t>(tx_dst_);
    case 5: return static_cast<std::int64_t>(rxq_.size());
    case 6:
      return rxq_.empty()
                 ? 0
                 : static_cast<std::int64_t>(rxq_.front()->payload.size());
    case 7:
      return rxq_.empty()
                 ? 0
                 : static_cast<std::int64_t>(rxq_.front()->src_mac);
    case 8: return static_cast<std::int64_t>(mac_);
    default: return 0;
  }
}

void NicAssist::mmio_write(std::uint64_t reg, std::int64_t v) {
  switch (reg) {
    case 0: dma_addr_ = static_cast<std::uint64_t>(v); return;
    case 1: dma_len_ = static_cast<std::uint64_t>(v); return;
    case 2:
      if (mode_ != DmaMode::Idle) {
        throw liberty::SimulationError("nil.nic_assist '" + name() +
                                       "': DMA command while busy");
      }
      if (v == 1 && dma_len_ > 0) {
        mode_ = DmaMode::Gather;
        dma_done_ = 0;
        dma_buf_.clear();
      } else if (v == 2 && !rxq_.empty()) {
        mode_ = DmaMode::Scatter;
        dma_done_ = 0;
      }
      return;
    case 4: tx_dst_ = static_cast<std::uint64_t>(v); return;
    case 8: mac_ = static_cast<std::uint64_t>(v); return;
    case 9:
      if (v == 1 && !rxq_.empty()) rxq_.pop_front();
      return;
    default:
      return;
  }
}

void NicAssist::cycle_start(Cycle) {
  if (!memq_.empty() && !mem_in_flight_) {
    host_req_.send(memq_.front());
  } else {
    host_req_.idle();
  }
  if (!txq_.empty()) {
    net_tx_.send(txq_.front());
  } else {
    net_tx_.idle();
  }
}

void NicAssist::end_of_cycle() {
  if (host_req_.transferred()) {
    memq_.pop_front();
    mem_in_flight_ = true;
  }
  if (net_tx_.transferred()) {
    txq_.pop_front();
    stats().bind(tx_frames_stat_, "tx_frames").inc();
  }

  if (host_resp_.transferred()) {
    mem_in_flight_ = false;
    const auto resp = host_resp_.data().as<MemResp>();
    stats().bind(dma_words_stat_, "dma_words").inc();
    if (mode_ == DmaMode::Gather && !resp->was_write) {
      dma_buf_.push_back(resp->data);
      ++dma_done_;
      if (dma_done_ == dma_len_) {
        txq_.push_back(liberty::Value(std::static_pointer_cast<const Payload>(
            EthFrame::make(mac_, tx_dst_, dma_buf_))));
        mode_ = DmaMode::Idle;
      }
    } else if (mode_ == DmaMode::Scatter && resp->was_write) {
      ++dma_done_;
      if (rxq_.empty() || dma_done_ == rxq_.front()->payload.size()) {
        mode_ = DmaMode::Idle;
      }
    }
  }

  // Issue the next DMA word.
  if (!mem_in_flight_ && memq_.empty()) {
    if (mode_ == DmaMode::Gather && dma_done_ + memq_.size() < dma_len_) {
      memq_.push_back(liberty::Value::make<MemReq>(
          MemReq::Op::Read, dma_addr_ + dma_done_, 0, 0x71C0 + dma_done_));
    } else if (mode_ == DmaMode::Scatter && !rxq_.empty() &&
               dma_done_ < rxq_.front()->payload.size()) {
      memq_.push_back(liberty::Value::make<MemReq>(
          MemReq::Op::Write, dma_addr_ + dma_done_,
          rxq_.front()->payload[dma_done_], 0x71C1));
    }
  }

  // Receive path: check FCS, queue good frames.
  if (net_rx_.transferred()) {
    const auto frame = net_rx_.data().try_as<EthFrame>();
    if (frame == nullptr) {
      throw liberty::SimulationError("nil.nic_assist '" + name() +
                                     "': non-EthFrame on net_rx");
    }
    if (frame->fcs_ok()) {
      rxq_.push_back(frame);
      stats().counter("rx_frames").inc();
    } else {
      stats().counter("crc_errors").inc();
    }
  }
}

void NicAssist::declare_deps(Deps& deps) const {
  deps.state_only(host_req_);
  deps.state_only(net_tx_);
}

void NicAssist::save_state(liberty::core::StateWriter& w) const {
  w.put_u64(mac_);
  w.put_u64(dma_addr_);
  w.put_u64(dma_len_);
  w.put_u64(tx_dst_);
  w.put_u64(static_cast<std::uint64_t>(mode_));
  w.put_u64(dma_done_);
  w.put_size(dma_buf_.size());
  for (const std::int64_t word : dma_buf_) w.put_i64(word);
  w.put_size(memq_.size());
  for (const auto& v : memq_) w.put(v);
  w.put_bool(mem_in_flight_);
  w.put_size(txq_.size());
  for (const auto& v : txq_) w.put(v);
  w.put_size(rxq_.size());
  for (const auto& f : rxq_) {
    w.put(liberty::Value(std::static_pointer_cast<const Payload>(f)));
  }
}

void NicAssist::load_state(liberty::core::StateReader& r) {
  mac_ = r.get_u64();
  dma_addr_ = r.get_u64();
  dma_len_ = r.get_u64();
  tx_dst_ = r.get_u64();
  mode_ = static_cast<DmaMode>(r.get_u64());
  dma_done_ = r.get_u64();
  dma_buf_.clear();
  const std::size_t words = r.get_size();
  for (std::size_t i = 0; i < words; ++i) dma_buf_.push_back(r.get_i64());
  memq_.clear();
  const std::size_t mems = r.get_size();
  for (std::size_t i = 0; i < mems; ++i) memq_.push_back(r.get());
  mem_in_flight_ = r.get_bool();
  txq_.clear();
  const std::size_t txs = r.get_size();
  for (std::size_t i = 0; i < txs; ++i) txq_.push_back(r.get());
  rxq_.clear();
  const std::size_t rxs = r.get_size();
  for (std::size_t i = 0; i < rxs; ++i) rxq_.push_back(r.get().as<EthFrame>());
}

// ---------------------------------------------------------------------------
// Firmware
// ---------------------------------------------------------------------------

std::string nic_firmware(const NicFirmwareConfig& cfg) {
  const std::string M = std::to_string(cfg.mmio_base);
  auto mmio = [&cfg](int reg) {
    return std::to_string(cfg.mmio_base + reg);
  };
  return
      // r20 = mmio base, r21 = tx ring, r22 = rx ring, r23 = entries,
      // r24 = tx index, r25 = rx index, r26 = 4 (descriptor words)
      "  li r20, " + M + "\n"
      "  li r21, " + std::to_string(cfg.tx_ring) + "\n"
      "  li r22, " + std::to_string(cfg.rx_ring) + "\n"
      "  li r23, " + std::to_string(cfg.ring_entries) + "\n"
      "  li r24, 0\n"
      "  li r25, 0\n"
      "  li r26, 4\n"
      "main:\n"
      // ---- TX ring: descriptor = [addr, len, status, dst_mac] ----
      "  mul r1, r24, r26\n"
      "  add r1, r1, r21\n"
      "  lw r2, 2(r1)\n"          // status
      "  li r3, 1\n"
      "  bne r2, r3, rx_path\n"   // not ready
      "  lw r4, 0(r1)\n"          // payload address
      "  lw r5, 1(r1)\n"          // length
      "  lw r6, 3(r1)\n"          // destination MAC
      "  sw r4, " + mmio(0) + "(r0)\n"   // dma_addr
      "  sw r5, " + mmio(1) + "(r0)\n"   // dma_len
      "  sw r6, " + mmio(4) + "(r0)\n"   // tx_dst
      "  li r7, 1\n"
      "  sw r7, " + mmio(2) + "(r0)\n"   // dma_cmd = gather + transmit
      "wait_tx:\n"
      "  lw r8, " + mmio(3) + "(r0)\n"   // dma_status
      "  bne r8, r0, wait_tx\n"
      "  li r9, 2\n"
      "  sw r9, 2(r1)\n"          // descriptor done
      "  addi r24, r24, 1\n"
      "  blt r24, r23, rx_path\n"
      "  li r24, 0\n"
      // ---- RX ring: descriptor = [addr, len, status, src_mac] ----
      "rx_path:\n"
      "  lw r2, " + mmio(5) + "(r0)\n"   // frames waiting?
      "  beq r2, r0, main\n"
      "  mul r1, r25, r26\n"
      "  add r1, r1, r22\n"
      "  lw r3, 2(r1)\n"          // status: 1 = host gave us a free buffer
      "  li r4, 1\n"
      "  bne r3, r4, main\n"      // no buffer: frame waits in the assist
      "  lw r5, 0(r1)\n"          // buffer address
      "  sw r5, " + mmio(0) + "(r0)\n"   // dma_addr
      "  lw r6, " + mmio(6) + "(r0)\n"   // rx_len
      "  sw r6, 1(r1)\n"          // descriptor length
      "  lw r7, " + mmio(7) + "(r0)\n"   // rx_src
      "  sw r7, 3(r1)\n"
      "  li r8, 2\n"
      "  sw r8, " + mmio(2) + "(r0)\n"   // dma_cmd = scatter
      "wait_rx:\n"
      "  lw r9, " + mmio(3) + "(r0)\n"
      "  bne r9, r0, wait_rx\n"
      "  li r9, 1\n"
      "  sw r9, " + mmio(9) + "(r0)\n"   // rx_pop
      "  li r10, 2\n"
      "  sw r10, 2(r1)\n"         // descriptor filled
      "  addi r25, r25, 1\n"
      "  blt r25, r23, back\n"
      "  li r25, 0\n"
      "back:\n"
      "  j main\n";
}

ProgrammableNic build_programmable_nic(Netlist& netlist,
                                       const std::string& prefix,
                                       std::uint64_t mac,
                                       const NicFirmwareConfig& cfg) {
  ProgrammableNic nic;
  nic.core = &netlist.make<upl::SimpleCpu>(prefix + ".core", Params());
  Params ap;
  ap.set("mac", static_cast<std::int64_t>(mac));
  nic.assist = &netlist.make<NicAssist>(prefix + ".assist", ap);
  nic.core->set_program(upl::assemble(nic_firmware(cfg), prefix + ".fw"));

  nic.core->attach_mmio(static_cast<std::uint64_t>(cfg.mmio_base), 16,
                        *nic.assist);
  return nic;
}

}  // namespace liberty::nil
