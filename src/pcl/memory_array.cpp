#include "liberty/pcl/memory_array.hpp"

#include <algorithm>
#include <utility>

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::pcl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

MemoryArray::MemoryArray(const std::string& name, const Params& params)
    : Module(name),
      req_(add_in("req", AckMode::Managed, 0)),
      resp_(add_out("resp", 0)),
      latency_(params.get_size("latency", 1)),
      mshrs_(params.get_size("mshrs", 4)),
      ports_(params.get_size("ports", 1)) {
  if (latency_ == 0) {
    throw liberty::ElaborationError("pcl.memory_array '" + name +
                                    "': latency must be >= 1");
  }
}

void MemoryArray::cycle_start(Cycle c) {
  const bool head_ready = !pending_.empty() && pending_.front().ready <= c;
  for (std::size_t i = 0; i < resp_.width(); ++i) {
    if (head_ready && i == pending_.front().src_ep) {
      resp_.send_at(i, pending_.front().resp);
    } else {
      resp_.idle(i);
    }
  }

  std::size_t budget =
      pending_.size() < mshrs_ ? std::min(ports_, mshrs_ - pending_.size())
                               : 0;
  for (std::size_t i = 0; i < req_.width(); ++i) {
    if (budget > 0) {
      req_.ack(i);
      --budget;
    } else {
      req_.nack(i);
      stats().bind(busy_stalls_stat_, "busy_stalls");
      busy_stalls_stat_->inc();
    }
  }
}

void MemoryArray::end_of_cycle() {
  if (!pending_.empty() && pending_.front().src_ep < resp_.width() &&
      resp_.transferred(pending_.front().src_ep)) {
    pending_.pop_front();
  }
  for (std::size_t i = 0; i < req_.width(); ++i) {
    if (!req_.transferred(i)) continue;
    const auto r = req_.data(i).as<MemReq>();
    std::int64_t out_data = 0;
    if (r->op == MemReq::Op::Read) {
      out_data = peek(r->addr);
      stats().bind(reads_stat_, "reads");
      reads_stat_->inc();
    } else {
      store_[r->addr] = r->data;
      stats().bind(writes_stat_, "writes");
      writes_stat_->inc();
    }
    pending_.push_back(Pending{
        liberty::Value::make<MemResp>(r->tag, out_data,
                                      r->op == MemReq::Op::Write),
        now() + latency_, i});
  }
}

void MemoryArray::save_state(liberty::core::StateWriter& w) const {
  w.put_size(store_.size());
  for (const auto& [addr, data] : store_) {
    w.put_u64(addr);
    w.put_i64(data);
  }
  w.put_size(pending_.size());
  for (const auto& p : pending_) {
    w.put(p.resp);
    w.put_u64(p.ready);
    w.put_size(p.src_ep);
  }
}

void MemoryArray::load_state(liberty::core::StateReader& r) {
  store_.clear();
  const std::size_t cells = r.get_size();
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint64_t addr = r.get_u64();
    store_.insert_or_assign(store_.end(), addr, r.get_i64());
  }
  pending_.clear();
  const std::size_t n = r.get_size();
  for (std::size_t i = 0; i < n; ++i) {
    liberty::Value resp = r.get();
    const Cycle ready = r.get_u64();
    const std::size_t src_ep = r.get_size();
    pending_.push_back(Pending{std::move(resp), ready, src_ep});
  }
}

void MemoryArray::declare_deps(Deps& deps) const {
  deps.state_only(resp_);
  deps.state_only(req_);
}

}  // namespace liberty::pcl
