#include "liberty/mpl/directory.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::mpl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;
using liberty::pcl::MemReq;
using liberty::pcl::MemResp;

namespace {
HomeMap home_map_from(const Params& params) {
  HomeMap m;
  m.home0 = params.get_size("home0", 0);
  m.num_homes = params.get_size("num_homes", 1);
  m.stride = params.get_size("home_stride", 1);
  m.line_words = params.get_size("line_words", 4);
  return m;
}
}  // namespace

// ---------------------------------------------------------------------------
// DirectoryCtl
// ---------------------------------------------------------------------------

DirectoryCtl::DirectoryCtl(const std::string& name, const Params& params)
    : Module(name),
      msg_in_(add_in("msg_in", AckMode::AutoAccept, 0, 1)),
      msg_out_(add_out("msg_out", 0, 1)),
      id_num_(params.get_size("id", 0)),
      map_(home_map_from(params)),
      latency_(static_cast<std::uint64_t>(params.get_int("latency", 12))) {}

void DirectoryCtl::send(CohMsg::Type type, std::uint64_t line,
                        std::size_t dst, std::vector<std::int64_t> words,
                        bool exclusive) {
  outq_.push_back(liberty::Value::make<CohMsg>(type, line, id_num_, dst, 0,
                                               std::move(words), exclusive));
  // Data replies pay the memory latency; control messages go immediately.
  out_ready_.push_back(type == CohMsg::Type::Data ? now() + latency_ : now());
}

std::vector<std::int64_t> DirectoryCtl::read_line(std::uint64_t line) const {
  std::vector<std::int64_t> words(map_.line_words);
  for (std::size_t i = 0; i < map_.line_words; ++i) {
    words[i] = peek(line + i);
  }
  return words;
}

void DirectoryCtl::cycle_start(Cycle c) {
  if (!outq_.empty() && out_ready_.front() <= c) {
    msg_out_.send(outq_.front());
  } else {
    msg_out_.idle();
  }
}

void DirectoryCtl::start_request(const CohMsg& msg) {
  DirEntry& e = dir_[msg.line];
  const bool is_getx = msg.type == CohMsg::Type::GetX;
  stats().counter(is_getx ? "getx" : "gets").inc();

  if (e.state == LineState::Modified) {
    // Fetch from the owner; reply when the WbData returns.
    stats().counter("fetches").inc();
    send(CohMsg::Type::Fetch, msg.line, e.owner, {}, /*invalidate=*/is_getx);
    busy_[msg.line] = Transaction{is_getx, msg.src, 0, true};
    return;
  }

  if (is_getx && !e.sharers.empty() &&
      !(e.sharers.size() == 1 && e.sharers.count(msg.src) == 1)) {
    // Invalidate every other sharer, then grant.
    Transaction t{true, msg.src, 0, false};
    for (const std::size_t s : e.sharers) {
      if (s == msg.src) continue;
      stats().counter("invs").inc();
      send(CohMsg::Type::Inv, msg.line, s);
      ++t.pending_acks;
    }
    busy_[msg.line] = t;
    return;
  }

  // Immediate grant.
  if (is_getx) {
    e.state = LineState::Modified;
    e.sharers.clear();
    e.owner = msg.src;
  } else {
    e.state = LineState::Shared;
    e.sharers.insert(msg.src);
  }
  stats().counter("data_sent").inc();
  send(CohMsg::Type::Data, msg.line, msg.src, read_line(msg.line), is_getx);
}

void DirectoryCtl::finish_transaction(std::uint64_t line) {
  const Transaction t = busy_.at(line);
  busy_.erase(line);
  DirEntry& e = dir_[line];
  if (t.is_getx) {
    e.state = LineState::Modified;
    e.sharers.clear();
    e.owner = t.requester;
  } else {
    e.state = LineState::Shared;
    e.sharers.insert(t.requester);
  }
  stats().counter("data_sent").inc();
  send(CohMsg::Type::Data, line, t.requester, read_line(line), t.is_getx);

  // Wake the next queued request for this line.
  auto wit = waiting_.find(line);
  if (wit != waiting_.end() && !wit->second.empty()) {
    const liberty::Value next = wit->second.front();
    wit->second.pop_front();
    if (wit->second.empty()) waiting_.erase(wit);
    handle(*next.as<CohMsg>());
  }
}

void DirectoryCtl::handle(const CohMsg& msg) {
  const std::size_t expected_home = map_.home_of(msg.line);
  if (expected_home != id_num_) {
    throw liberty::SimulationError(
        "mpl.directory '" + name() + "': message for line " +
        std::to_string(msg.line) + " belongs to home " +
        std::to_string(expected_home));
  }

  switch (msg.type) {
    case CohMsg::Type::GetS:
    case CohMsg::Type::GetX: {
      if (busy_.count(msg.line) != 0) {
        stats().counter("queued").inc();
        waiting_[msg.line].push_back(liberty::Value::make<CohMsg>(msg));
        return;
      }
      start_request(msg);
      return;
    }
    case CohMsg::Type::InvAck: {
      auto it = busy_.find(msg.line);
      if (it == busy_.end()) return;
      if (it->second.pending_acks > 0) --it->second.pending_acks;
      if (it->second.pending_acks == 0 && !it->second.waiting_fetch) {
        finish_transaction(msg.line);
      }
      return;
    }
    case CohMsg::Type::WbData: {
      // Memory update, whether a fetch response or a dirty eviction.
      for (std::size_t i = 0; i < msg.words.size(); ++i) {
        store_[msg.line + i] = msg.words[i];
      }
      auto it = busy_.find(msg.line);
      if (it != busy_.end() && it->second.waiting_fetch) {
        it->second.waiting_fetch = false;
        if (it->second.pending_acks == 0) finish_transaction(msg.line);
        return;
      }
      // Eviction: the owner gave up the line voluntarily.
      DirEntry& e = dir_[msg.line];
      if (e.state == LineState::Modified && e.owner == msg.src) {
        e.state = LineState::Uncached;
        e.sharers.clear();
      }
      return;
    }
    default:
      return;
  }
}

void DirectoryCtl::end_of_cycle() {
  if (msg_out_.transferred()) {
    outq_.pop_front();
    out_ready_.pop_front();
  }
  if (msg_in_.transferred()) handle(*msg_in_.data().as<CohMsg>());
}

void DirectoryCtl::declare_deps(Deps& deps) const {
  deps.state_only(msg_out_);
}

void DirectoryCtl::save_state(liberty::core::StateWriter& w) const {
  // Every map below is unordered; serialize sorted by key so equal states
  // digest identically regardless of insertion history (see MemoryArray).
  std::vector<std::pair<std::uint64_t, std::int64_t>> cells(store_.begin(),
                                                            store_.end());
  std::sort(cells.begin(), cells.end());
  w.put_size(cells.size());
  for (const auto& [addr, data] : cells) {
    w.put_u64(addr);
    w.put_i64(data);
  }

  std::vector<std::uint64_t> lines;
  lines.reserve(dir_.size());
  for (const auto& [line, entry] : dir_) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  w.put_size(lines.size());
  for (const std::uint64_t line : lines) {
    const DirEntry& e = dir_.at(line);
    w.put_u64(line);
    w.put_u64(static_cast<std::uint64_t>(e.state));
    w.put_size(e.sharers.size());
    for (const std::size_t s : e.sharers) w.put_size(s);
    w.put_size(e.owner);
  }

  lines.clear();
  for (const auto& [line, txn] : busy_) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  w.put_size(lines.size());
  for (const std::uint64_t line : lines) {
    const Transaction& t = busy_.at(line);
    w.put_u64(line);
    w.put_bool(t.is_getx);
    w.put_size(t.requester);
    w.put_size(t.pending_acks);
    w.put_bool(t.waiting_fetch);
  }

  lines.clear();
  for (const auto& [line, q] : waiting_) {
    if (!q.empty()) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  w.put_size(lines.size());
  for (const std::uint64_t line : lines) {
    const auto& q = waiting_.at(line);
    w.put_u64(line);
    w.put_size(q.size());
    for (const auto& v : q) w.put(v);
  }

  w.put_size(outq_.size());
  for (const auto& v : outq_) w.put(v);
  for (const liberty::core::Cycle c : out_ready_) w.put_u64(c);
}

void DirectoryCtl::load_state(liberty::core::StateReader& r) {
  store_.clear();
  const std::size_t cells = r.get_size();
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint64_t addr = r.get_u64();
    store_[addr] = r.get_i64();
  }

  dir_.clear();
  const std::size_t entries = r.get_size();
  for (std::size_t i = 0; i < entries; ++i) {
    const std::uint64_t line = r.get_u64();
    DirEntry e;
    e.state = static_cast<LineState>(r.get_u64());
    const std::size_t sharers = r.get_size();
    for (std::size_t s = 0; s < sharers; ++s) e.sharers.insert(r.get_size());
    e.owner = r.get_size();
    dir_[line] = std::move(e);
  }

  busy_.clear();
  const std::size_t txns = r.get_size();
  for (std::size_t i = 0; i < txns; ++i) {
    const std::uint64_t line = r.get_u64();
    Transaction t;
    t.is_getx = r.get_bool();
    t.requester = r.get_size();
    t.pending_acks = r.get_size();
    t.waiting_fetch = r.get_bool();
    busy_[line] = t;
  }

  waiting_.clear();
  const std::size_t queues = r.get_size();
  for (std::size_t i = 0; i < queues; ++i) {
    const std::uint64_t line = r.get_u64();
    auto& q = waiting_[line];
    const std::size_t n = r.get_size();
    for (std::size_t j = 0; j < n; ++j) q.push_back(r.get());
  }

  outq_.clear();
  out_ready_.clear();
  const std::size_t outs = r.get_size();
  for (std::size_t i = 0; i < outs; ++i) outq_.push_back(r.get());
  for (std::size_t i = 0; i < outs; ++i) out_ready_.push_back(r.get_u64());
}

// ---------------------------------------------------------------------------
// DirCache
// ---------------------------------------------------------------------------

DirCache::DirCache(const std::string& name, const Params& params)
    : Module(name),
      cpu_req_(add_in("cpu_req", AckMode::Managed, 0, 1)),
      cpu_resp_(add_out("cpu_resp", 0, 1)),
      msg_out_(add_out("msg_out", 0, 1)),
      msg_in_(add_in("msg_in", AckMode::AutoAccept, 0, 1)),
      id_num_(params.get_size("id", 0)),
      model_(params.get_size("sets", 16),
             params.get_size("ways", 2),
             params.get_size("line_words", 4),
             upl::replacement_from_string(
                 params.get_string("replacement", "lru"))),
      hit_latency_(
          static_cast<std::uint64_t>(params.get_int("hit_latency", 1))),
      map_(home_map_from(params)) {}

void DirCache::send(CohMsg::Type type, std::uint64_t line, std::size_t dst,
                    std::vector<std::int64_t> words, bool exclusive) {
  outq_.push_back(liberty::Value::make<CohMsg>(type, line, id_num_, dst, 0,
                                               std::move(words), exclusive));
}

void DirCache::cycle_start(Cycle c) {
  if (!respq_.empty() && resp_ready_.front() <= c) {
    cpu_resp_.send(respq_.front());
  } else {
    cpu_resp_.idle();
  }
  if (!outq_.empty()) {
    msg_out_.send(outq_.front());
  } else {
    msg_out_.idle();
  }
  if (!miss_) {
    cpu_req_.ack();
  } else {
    cpu_req_.nack();
  }
}

void DirCache::complete_locally(const liberty::Value& req_value) {
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

void DirCache::handle_cpu(const liberty::Value& v) {
  const auto req = v.as<MemReq>();
  const std::uint64_t base = model_.line_addr(req->addr);
  upl::CacheModel::Line* line = model_.lookup(req->addr);
  const bool write = req->op == MemReq::Op::Write;

  if (line != nullptr && (!write || line->meta == kModified)) {
    stats().counter("hits").inc();
    complete_locally(v);
    return;
  }
  if (line != nullptr) stats().counter("upgrades").inc();
  stats().counter("misses").inc();
  miss_ = Outstanding{v, base};
  send(write ? CohMsg::Type::GetX : CohMsg::Type::GetS, base,
       map_.home_of(base));
}

void DirCache::handle_msg(const CohMsg& msg) {
  switch (msg.type) {
    case CohMsg::Type::Data: {
      if (!miss_ || miss_->line != msg.line) return;  // stale reply
      // Upgrade grants target a line we still hold; plain fills allocate.
      upl::CacheModel::Line* line = model_.lookup(msg.line, /*touch=*/false);
      if (line == nullptr) {
        upl::CacheModel::Line& way = model_.victim(msg.line);
        if (way.valid) {
          const std::uint64_t victim =
              model_.addr_of(way, model_.set_of(msg.line));
          if (way.meta == kModified) {
            stats().counter("writebacks").inc();
            send(CohMsg::Type::WbData, victim, map_.home_of(victim),
                 data_[victim]);
          }
          data_.erase(victim);
        }
        model_.fill(way, msg.line, /*dirty=*/false);
        line = &way;
      }
      line->meta = msg.exclusive ? kModified : kShared;
      data_[msg.line] = msg.words;
      complete_locally(miss_->cpu_req);
      if (miss_->cpu_req.as<MemReq>()->op == MemReq::Op::Write) {
        line->meta = kModified;
      }
      miss_.reset();
      return;
    }
    case CohMsg::Type::Inv: {
      stats().counter("invalidations_rx").inc();
      model_.invalidate(msg.line);
      data_.erase(msg.line);
      send(CohMsg::Type::InvAck, msg.line, msg.src);
      return;
    }
    case CohMsg::Type::Fetch: {
      stats().counter("fetches_rx").inc();
      upl::CacheModel::Line* line = model_.lookup(msg.line, /*touch=*/false);
      std::vector<std::int64_t> words;
      if (line != nullptr) {
        words = data_[msg.line];
        if (msg.exclusive) {
          model_.invalidate(msg.line);
          data_.erase(msg.line);
        } else {
          line->meta = kShared;
        }
      }
      send(CohMsg::Type::WbData, msg.line, msg.src, std::move(words));
      return;
    }
    default:
      return;
  }
}

void DirCache::end_of_cycle() {
  if (cpu_resp_.transferred()) {
    respq_.pop_front();
    resp_ready_.pop_front();
  }
  if (msg_out_.transferred()) outq_.pop_front();
  if (msg_in_.transferred()) handle_msg(*msg_in_.data().as<CohMsg>());
  if (cpu_req_.transferred()) handle_cpu(cpu_req_.data());
}

void DirCache::declare_deps(Deps& deps) const {
  deps.state_only(cpu_resp_);
  deps.state_only(msg_out_);
  deps.state_only(cpu_req_);
}

void DirCache::save_state(liberty::core::StateWriter& w) const {
  model_.save(w);

  std::vector<std::uint64_t> lines;
  lines.reserve(data_.size());
  for (const auto& [line, words] : data_) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  w.put_size(lines.size());
  for (const std::uint64_t line : lines) {
    const auto& words = data_.at(line);
    w.put_u64(line);
    w.put_size(words.size());
    for (const std::int64_t word : words) w.put_i64(word);
  }

  w.put_bool(miss_.has_value());
  if (miss_) {
    w.put(miss_->cpu_req);
    w.put_u64(miss_->line);
  }

  w.put_size(outq_.size());
  for (const auto& v : outq_) w.put(v);
  w.put_size(respq_.size());
  for (const auto& v : respq_) w.put(v);
  for (const liberty::core::Cycle c : resp_ready_) w.put_u64(c);
}

void DirCache::load_state(liberty::core::StateReader& r) {
  model_.load(r);

  data_.clear();
  const std::size_t lines = r.get_size();
  for (std::size_t i = 0; i < lines; ++i) {
    const std::uint64_t line = r.get_u64();
    auto& words = data_[line];
    const std::size_t n = r.get_size();
    words.reserve(n);
    for (std::size_t j = 0; j < n; ++j) words.push_back(r.get_i64());
  }

  miss_.reset();
  if (r.get_bool()) {
    liberty::Value req = r.get();
    const std::uint64_t line = r.get_u64();
    miss_ = Outstanding{std::move(req), line};
  }

  outq_.clear();
  const std::size_t outs = r.get_size();
  for (std::size_t i = 0; i < outs; ++i) outq_.push_back(r.get());
  respq_.clear();
  resp_ready_.clear();
  const std::size_t resps = r.get_size();
  for (std::size_t i = 0; i < resps; ++i) respq_.push_back(r.get());
  for (std::size_t i = 0; i < resps; ++i) resp_ready_.push_back(r.get_u64());
}

}  // namespace liberty::mpl
