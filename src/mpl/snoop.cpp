#include "liberty/mpl/snoop.hpp"

#include <algorithm>

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::mpl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;
using liberty::pcl::MemReq;
using liberty::pcl::MemResp;

// ---------------------------------------------------------------------------
// SnoopCache
// ---------------------------------------------------------------------------

SnoopCache::SnoopCache(const std::string& name, const Params& params)
    : Module(name),
      cpu_req_(add_in("cpu_req", AckMode::Managed, 0, 1)),
      cpu_resp_(add_out("cpu_resp", 0, 1)),
      bus_out_(add_out("bus_out", 0, 1)),
      bus_in_(add_in("bus_in", AckMode::AutoAccept, 0, 1)),
      id_num_(params.get_size("id", 0)),
      model_(params.get_size("sets", 16),
             params.get_size("ways", 2),
             params.get_size("line_words", 4),
             upl::replacement_from_string(
                 params.get_string("replacement", "lru"))),
      hit_latency_(
          static_cast<std::uint64_t>(params.get_int("hit_latency", 1))) {}

void SnoopCache::send(CohMsg::Type type, std::uint64_t line, std::size_t dst,
                      std::vector<std::int64_t> words, bool exclusive,
                      std::uint64_t tag) {
  outq_.push_back(liberty::Value::make<CohMsg>(type, line, id_num_, dst, tag,
                                               std::move(words), exclusive));
}

bool SnoopCache::sendable(const CohMsg& msg) const {
  if (msg.type != CohMsg::Type::GetS && msg.type != CohMsg::Type::GetX) {
    return true;  // data, writebacks, and Done always flow
  }
  return !txn_open_;  // a new request waits for the bus to go idle
}

void SnoopCache::cycle_start(Cycle c) {
  if (!respq_.empty() && resp_ready_.front() <= c) {
    cpu_resp_.send(respq_.front());
  } else {
    cpu_resp_.idle();
  }

  // Offer the first bus-eligible queued message.
  sending_.reset();
  for (std::size_t i = 0; i < outq_.size(); ++i) {
    if (sendable(*outq_[i].as<CohMsg>())) {
      sending_ = i;
      break;
    }
  }
  if (sending_) {
    bus_out_.send(outq_[*sending_]);
  } else {
    bus_out_.idle();
  }

  // One outstanding miss at a time.
  if (!miss_) {
    cpu_req_.ack();
  } else {
    cpu_req_.nack();
  }
}

void SnoopCache::complete_locally(const liberty::Value& req_value) {
  const auto req = req_value.as<MemReq>();
  const std::uint64_t base = model_.line_addr(req->addr);
  auto& words = data_[base];
  const auto off = static_cast<std::size_t>(req->addr - base);
  std::int64_t result = 0;
  if (req->op == MemReq::Op::Read) {
    result = words[off];
  } else {
    words[off] = req->data;
  }
  respq_.push_back(liberty::Value::make<MemResp>(
      req->tag, result, req->op == MemReq::Op::Write));
  resp_ready_.push_back(now() + hit_latency_);
}

void SnoopCache::handle_cpu(const liberty::Value& v) {
  const auto req = v.as<MemReq>();
  const std::uint64_t base = model_.line_addr(req->addr);
  upl::CacheModel::Line* line = model_.lookup(req->addr);

  if (line != nullptr) {
    const bool write = req->op == MemReq::Op::Write;
    if (!write || line->meta == kModified) {
      stats().counter("hits").inc();
      complete_locally(v);
      return;
    }
    // Write hit on S: upgrade.
    stats().counter("upgrades").inc();
    miss_ = Outstanding{v, base, /*upgrade=*/true, next_tag_++};
    send(CohMsg::Type::GetX, base, ~0ULL, {}, /*exclusive=*/true,
         miss_->tag);
    return;
  }

  stats().counter("misses").inc();
  miss_ = Outstanding{v, base, /*upgrade=*/false, next_tag_++};
  send(req->op == MemReq::Op::Read ? CohMsg::Type::GetS : CohMsg::Type::GetX,
       base, ~0ULL, {}, false, miss_->tag);
}

void SnoopCache::install_and_complete(const CohMsg& msg) {
  // Victim eviction (writeback if dirty M).
  upl::CacheModel::Line& way = model_.victim(msg.line);
  if (way.valid) {
    const std::uint64_t victim = model_.addr_of(way, model_.set_of(msg.line));
    if (way.meta == kModified) {
      stats().counter("writebacks").inc();
      send(CohMsg::Type::WbData, victim, ~0ULL, data_[victim]);
    }
    data_.erase(victim);
  }
  model_.fill(way, msg.line, /*dirty=*/false);
  way.meta = msg.exclusive ? kModified : kShared;
  data_[msg.line] = msg.words;
  complete_locally(miss_->cpu_req);
  if (miss_->cpu_req.as<MemReq>()->op == MemReq::Op::Write) {
    way.meta = kModified;
  }
  const std::uint64_t tag = miss_->tag;
  miss_.reset();
  send(CohMsg::Type::Done, msg.line, ~0ULL, {}, false, tag);
}

std::string SnoopCache::debug_state(std::uint64_t addr) const {
  std::string out = name() + ": ";
  if (const auto* line = model_.lookup(addr)) {
    out += "line " + std::to_string(model_.line_addr(addr)) +
           " meta=" + std::to_string(line->meta);
  } else {
    out += "line absent";
  }
  if (miss_) {
    out += " miss{line=" + std::to_string(miss_->line) +
           " upgrade=" + std::to_string(miss_->upgrade) + "}";
  }
  if (txn_open_) out += " txn_open(src=" + std::to_string(txn_src_) + ")";
  out += " outq=" + std::to_string(outq_.size());
  for (const auto& v : outq_) out += " [" + v.to_string() + "]";
  return out;
}

void SnoopCache::supply_from_writeback(const CohMsg& msg, bool exclusive) {
  for (const liberty::Value& v : outq_) {
    const auto pending = v.as<CohMsg>();
    if (pending->type == CohMsg::Type::WbData && pending->line == msg.line) {
      stats().counter("supplies_from_wb").inc();
      send(CohMsg::Type::Data, msg.line, msg.src, pending->words, exclusive,
           msg.tag);
      return;
    }
  }
}

void SnoopCache::snoop(const CohMsg& msg) {
  // Transaction bookkeeping first: requests open, the requester's Done
  // closes.
  switch (msg.type) {
    case CohMsg::Type::GetS:
    case CohMsg::Type::GetX:
      txn_open_ = true;
      txn_src_ = msg.src;
      break;
    case CohMsg::Type::Done:
      txn_open_ = false;
      return;
    default:
      break;
  }

  switch (msg.type) {
    case CohMsg::Type::GetS: {
      if (msg.src == id_num_) return;
      upl::CacheModel::Line* line = model_.lookup(msg.line, /*touch=*/false);
      if (line != nullptr && line->meta == kModified) {
        stats().counter("supplies").inc();
        send(CohMsg::Type::Data, msg.line, msg.src, data_[msg.line],
             /*exclusive=*/false, msg.tag);
        line->meta = kShared;  // memory reflects the broadcast data
      } else if (line == nullptr) {
        // Eviction race: memory may still believe we own this line while
        // our WbData waits in the queue — answer from it.
        supply_from_writeback(msg, /*exclusive=*/false);
      }
      return;
    }
    case CohMsg::Type::GetX: {
      upl::CacheModel::Line* line = model_.lookup(msg.line, /*touch=*/false);
      if (msg.src == id_num_) {
        // Our own request on the bus: an upgrade completes here.
        if (miss_ && miss_->upgrade && miss_->line == msg.line) {
          if (line != nullptr) {
            line->meta = kModified;
            complete_locally(miss_->cpu_req);
            const std::uint64_t tag = miss_->tag;
            miss_.reset();
            send(CohMsg::Type::Done, msg.line, ~0ULL, {}, false, tag);
          } else {
            // A racing writer took our S copy before our upgrade went out:
            // this same GetX now acts as a plain miss; the owner or memory
            // answers it with Data.
            miss_->upgrade = false;
          }
        }
        return;
      }
      if (line == nullptr) {
        supply_from_writeback(msg, /*exclusive=*/true);
        return;
      }
      stats().counter("invalidations_rx").inc();
      if (line->meta == kModified) {
        stats().counter("supplies").inc();
        send(CohMsg::Type::Data, msg.line, msg.src, data_[msg.line],
             /*exclusive=*/true, msg.tag);
      }
      model_.invalidate(msg.line);
      data_.erase(msg.line);
      return;
    }
    case CohMsg::Type::Data: {
      if (msg.dst == id_num_ && miss_ && !miss_->upgrade &&
          miss_->line == msg.line && msg.tag == miss_->tag) {
        install_and_complete(msg);
      }
      return;
    }
    default:
      return;  // WbData concerns only the memory
  }
}

void SnoopCache::end_of_cycle() {
  if (cpu_resp_.transferred()) {
    respq_.pop_front();
    resp_ready_.pop_front();
  }
  if (bus_out_.transferred() && sending_) {
    outq_.erase(outq_.begin() + static_cast<std::ptrdiff_t>(*sending_));
  }
  if (bus_in_.transferred()) snoop(*bus_in_.data().as<CohMsg>());
  if (cpu_req_.transferred()) handle_cpu(cpu_req_.data());
}

void SnoopCache::declare_deps(Deps& deps) const {
  deps.state_only(cpu_resp_);
  deps.state_only(bus_out_);
  deps.state_only(cpu_req_);
}

// ---------------------------------------------------------------------------
// SnoopMemory
// ---------------------------------------------------------------------------

SnoopMemory::SnoopMemory(const std::string& name, const Params& params)
    : Module(name),
      bus_in_(add_in("bus_in", AckMode::AutoAccept, 0, 1)),
      bus_out_(add_out("bus_out", 0, 1)),
      line_words_(params.get_size("line_words", 4)),
      latency_(static_cast<std::uint64_t>(params.get_int("latency", 12))) {}

void SnoopMemory::cycle_start(Cycle c) {
  if (!pending_.empty() && pending_.front().ready <= c) {
    bus_out_.send(pending_.front().msg);
  } else {
    bus_out_.idle();
  }
}

void SnoopMemory::end_of_cycle() {
  if (bus_out_.transferred()) pending_.pop_front();
  if (!bus_in_.transferred()) return;
  const auto msg = bus_in_.data().as<CohMsg>();
  switch (msg->type) {
    case CohMsg::Type::GetS:
    case CohMsg::Type::GetX: {
      const bool is_getx = msg->type == CohMsg::Type::GetX;
      const auto owned = owner_.find(msg->line);
      const bool cache_owns =
          owned != owner_.end() && owned->second != msg->src;
      if (cache_owns) {
        // The M owner (or its in-flight writeback) supplies.
        stats().counter("suppressed").inc();
      } else {
        // Respond — including to upgrade GetX: the upgrader may have lost
        // its S copy to a racing writer, and it cancels the response with
        // its Done when the upgrade succeeded after all.
        std::vector<std::int64_t> words(line_words_);
        for (std::size_t i = 0; i < line_words_; ++i) {
          words[i] = peek(msg->line + i);
        }
        pending_.push_back(PendingResp{
            liberty::Value::make<CohMsg>(CohMsg::Type::Data, msg->line,
                                         /*src=*/~0ULL, msg->src, msg->tag,
                                         std::move(words), is_getx),
            now() + latency_});
        stats().counter("responses").inc();
      }
      // The serialized GetX stream is the sole ownership authority.
      if (is_getx) owner_[msg->line] = msg->src;
      return;
    }
    case CohMsg::Type::Done: {
      // The transaction completed; drop any response of ours it no longer
      // needs (e.g. for an upgrade that succeeded without data).
      pending_.erase(
          std::remove_if(pending_.begin(), pending_.end(),
                         [&msg](const PendingResp& p) {
                           const auto resp = p.msg.as<CohMsg>();
                           return resp->line == msg->line &&
                                  resp->dst == msg->src &&
                                  resp->tag == msg->tag;
                         }),
          pending_.end());
      return;
    }
    case CohMsg::Type::Data:
    case CohMsg::Type::WbData: {
      stats().counter("reflections").inc();
      for (std::size_t i = 0; i < msg->words.size(); ++i) {
        store_[msg->line + i] = msg->words[i];
      }
      if (msg->type == CohMsg::Type::WbData) {
        const auto it = owner_.find(msg->line);
        if (it != owner_.end() && it->second == msg->src) owner_.erase(it);
      } else if (!msg->exclusive) {
        owner_.erase(msg->line);  // owner downgraded to S while supplying
      }
      return;
    }
    default:
      return;
  }
}

void SnoopMemory::declare_deps(Deps& deps) const {
  deps.state_only(bus_out_);
}

}  // namespace liberty::mpl
