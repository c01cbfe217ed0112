#include "liberty/mpl/dma.hpp"

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::mpl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;
using liberty::pcl::MemReq;
using liberty::pcl::MemResp;

DmaCtl::DmaCtl(const std::string& name, const Params& params)
    : Module(name),
      mem_req_(add_out("mem_req", 0, 1)),
      mem_resp_(add_in("mem_resp", AckMode::AutoAccept, 0, 1)),
      net_out_(add_out("net_out", 0, 1)),
      net_in_(add_in("net_in", AckMode::AutoAccept, 0, 1)),
      chunk_words_(params.get_size("chunk_words", 8)) {
  if (chunk_words_ == 0) {
    throw liberty::ElaborationError("mpl.dma '" + name +
                                    "': chunk_words must be >= 1");
  }
}

std::int64_t DmaCtl::mmio_read(std::uint64_t reg) const {
  switch (reg) {
    case 0: return static_cast<std::int64_t>(reg_src_);
    case 1: return static_cast<std::int64_t>(reg_dst_node_);
    case 2: return static_cast<std::int64_t>(reg_dst_addr_);
    case 3: return static_cast<std::int64_t>(reg_len_);
    case 4: return tx_busy() ? 1 : 0;
    case 5: return static_cast<std::int64_t>(rx_words_);
    case 6: return rx_done_ ? 1 : 0;
    default: return 0;
  }
}

void DmaCtl::mmio_write(std::uint64_t reg, std::int64_t v) {
  switch (reg) {
    case 0: reg_src_ = static_cast<std::uint64_t>(v); return;
    case 1: reg_dst_node_ = static_cast<std::uint64_t>(v); return;
    case 2: reg_dst_addr_ = static_cast<std::uint64_t>(v); return;
    case 3: reg_len_ = static_cast<std::uint64_t>(v); return;
    case 4:
      if (v == 1) {
        start_transfer(reg_src_, static_cast<std::size_t>(reg_dst_node_),
                       reg_dst_addr_, reg_len_);
      }
      return;
    case 6:
      if (v == 0) {
        rx_done_ = false;
        rx_words_ = 0;
      }
      return;
    default:
      return;
  }
}

void DmaCtl::start_transfer(std::uint64_t src_addr, std::size_t dst_node,
                            std::uint64_t dst_addr, std::uint64_t length) {
  if (tx_) {
    throw liberty::SimulationError("mpl.dma '" + name() +
                                   "': transfer started while busy");
  }
  if (length == 0) return;
  tx_ = TxState{src_addr, dst_node, dst_addr, length, 0, 0, {}, 0};
  stats().counter("transfers").inc();
}

void DmaCtl::cycle_start(Cycle) {
  if (!memq_.empty() && !mem_in_flight_) {
    mem_req_.send(memq_.front());
  } else {
    mem_req_.idle();
  }
  if (!netq_.empty()) {
    net_out_.send(netq_.front());
  } else {
    net_out_.idle();
  }
}

void DmaCtl::end_of_cycle() {
  if (mem_req_.transferred()) {
    memq_.pop_front();
    mem_in_flight_ = true;
  }
  if (net_out_.transferred()) {
    netq_.pop_front();
    stats().counter("tx_chunks").inc();
  }

  if (mem_resp_.transferred()) {
    mem_in_flight_ = false;
    const auto resp = mem_resp_.data().as<MemResp>();
    if (!resp->was_write && tx_) {
      tx_->data.push_back(resp->data);
      ++tx_->read_done;
      stats().counter("tx_words").inc();
      // Cut a chunk when enough data is gathered (or at the end).
      const bool last = tx_->read_done == tx_->length;
      while (tx_->sent_words < tx_->read_done &&
             (tx_->read_done - tx_->sent_words >= chunk_words_ || last)) {
        const std::uint64_t n =
            std::min<std::uint64_t>(chunk_words_,
                                    tx_->read_done - tx_->sent_words);
        std::vector<std::int64_t> words(
            tx_->data.begin() + static_cast<std::ptrdiff_t>(tx_->sent_words),
            tx_->data.begin() +
                static_cast<std::ptrdiff_t>(tx_->sent_words + n));
        const bool chunk_is_last = last && tx_->sent_words + n == tx_->length;
        netq_.push_back(liberty::Value::make<DmaChunk>(
            tx_->dst_node, tx_->dst_addr + tx_->sent_words, std::move(words),
            xfer_id_, chunk_is_last));
        tx_->sent_words += n;
      }
      if (last && tx_->sent_words == tx_->length) {
        ++xfer_id_;
        tx_.reset();
      }
    }
  }

  // Issue the next source read.
  if (tx_ && tx_->read_issued < tx_->length && memq_.empty() &&
      !mem_in_flight_) {
    memq_.push_back(liberty::Value::make<MemReq>(
        MemReq::Op::Read, tx_->src_addr + tx_->read_issued, 0,
        0xD3A0 + tx_->read_issued));
    ++tx_->read_issued;
  }

  // Receive side: queue writes for arriving chunks.
  if (net_in_.transferred()) {
    const auto chunk = net_in_.data().as<DmaChunk>();
    stats().counter("rx_chunks").inc();
    for (std::size_t i = 0; i < chunk->words.size(); ++i) {
      rx_writes_.emplace_back(chunk->dst_addr + i, chunk->words[i]);
    }
    if (chunk->last) rx_last_seen_ = true;
  }
  // Drain one receive write at a time through the memory port (writes share
  // the port with tx reads; rx has priority via queue order).
  if (!rx_writes_.empty() && memq_.empty() && !mem_in_flight_) {
    const auto [addr, v] = rx_writes_.front();
    rx_writes_.pop_front();
    memq_.push_back(
        liberty::Value::make<MemReq>(MemReq::Op::Write, addr, v, 0xD3A1));
    ++rx_words_;
    stats().counter("rx_words").inc();
  }
  if (rx_last_seen_ && rx_writes_.empty() && !mem_in_flight_ &&
      memq_.empty()) {
    rx_done_ = true;
    rx_last_seen_ = false;
  }
}

void DmaCtl::declare_deps(Deps& deps) const {
  deps.state_only(mem_req_);
  deps.state_only(net_out_);
}

}  // namespace liberty::mpl
