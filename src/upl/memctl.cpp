#include "liberty/upl/memctl.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "liberty/upl/mem_protocol.hpp"
#include "liberty/support/error.hpp"

namespace liberty::upl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

MemoryCtl::MemoryCtl(const std::string& name, const Params& params)
    : Module(name),
      req_(add_in("req", AckMode::Managed, 0, 1)),
      resp_(add_out("resp", 0, 1)),
      latency_(static_cast<std::uint64_t>(params.get_int("latency", 20))),
      line_words_(params.get_size("line_words", 4)),
      bandwidth_(params.get_size("bandwidth", 1)) {
  if (latency_ == 0 || line_words_ == 0) {
    throw liberty::ElaborationError("upl.memctl '" + name +
                                    "': latency and line_words must be >= 1");
  }
}

void MemoryCtl::cycle_start(Cycle c) {
  if (!pending_.empty() && pending_.front().ready <= c) {
    resp_.send(pending_.front().resp);
  } else {
    resp_.idle();
  }
  // Simple bandwidth model: accept while the response pipe is shallow.
  if (pending_.size() < bandwidth_ * 4) {
    req_.ack();
  } else {
    req_.nack();
  }
}

void MemoryCtl::end_of_cycle() {
  if (resp_.transferred()) pending_.pop_front();
  if (!req_.transferred()) return;
  const auto r = req_.data().as<LineReq>();
  switch (r->kind) {
    case LineReq::Kind::Fetch:
    case LineReq::Kind::FetchExclusive: {
      stats().counter("fetches").inc();
      std::vector<std::int64_t> words(line_words_);
      for (std::size_t i = 0; i < line_words_; ++i) {
        words[i] = peek(r->line + i);
      }
      pending_.push_back(Pending{
          liberty::Value::make<LineResp>(
              r->line, r->tag, r->requester, std::move(words),
              r->kind == LineReq::Kind::FetchExclusive),
          now() + latency_});
      break;
    }
    case LineReq::Kind::Writeback: {
      stats().counter("writebacks").inc();
      for (std::size_t i = 0; i < r->words.size(); ++i) {
        store_[r->line + i] = r->words[i];
      }
      break;
    }
  }
}

void MemoryCtl::save_state(liberty::core::StateWriter& w) const {
  std::vector<std::pair<std::uint64_t, std::int64_t>> cells(store_.begin(),
                                                            store_.end());
  std::sort(cells.begin(), cells.end());
  w.put_size(cells.size());
  for (const auto& [addr, data] : cells) {
    w.put_u64(addr);
    w.put_i64(data);
  }
  w.put_size(pending_.size());
  for (const auto& p : pending_) {
    w.put(p.resp);
    w.put_u64(p.ready);
  }
}

void MemoryCtl::load_state(liberty::core::StateReader& r) {
  store_.clear();
  const std::size_t cells = r.get_size();
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint64_t addr = r.get_u64();
    store_[addr] = r.get_i64();
  }
  pending_.clear();
  const std::size_t n = r.get_size();
  for (std::size_t i = 0; i < n; ++i) {
    liberty::Value resp = r.get();
    const Cycle ready = r.get_u64();
    pending_.push_back(Pending{std::move(resp), ready});
  }
}

void MemoryCtl::declare_deps(Deps& deps) const {
  deps.state_only(resp_);
  deps.state_only(req_);
}

}  // namespace liberty::upl
