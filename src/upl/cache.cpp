#include "liberty/upl/cache.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "liberty/pcl/payloads.hpp"
#include "liberty/upl/mem_protocol.hpp"
#include "liberty/support/error.hpp"

namespace liberty::upl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;
using liberty::pcl::MemReq;
using liberty::pcl::MemResp;

// ---------------------------------------------------------------------------
// CacheModel
// ---------------------------------------------------------------------------

CacheModel::CacheModel(std::size_t sets, std::size_t ways,
                       std::size_t line_words, Replacement repl,
                       std::uint64_t seed)
    : sets_(sets), ways_(ways), line_words_(line_words), repl_(repl),
      rng_(seed) {
  if (sets == 0 || ways == 0 || line_words == 0) {
    throw liberty::ElaborationError(
        "cache geometry must be nonzero (sets/ways/line_words)");
  }
  if (ways > lines_.max_size() / sets) {
    throw liberty::ElaborationError("cache geometry overflows: " +
                                    std::to_string(sets) + " sets x " +
                                    std::to_string(ways) + " ways");
  }
  lines_.resize(sets * ways);
}

CacheModel::Line* CacheModel::lookup(std::uint64_t addr, bool touch) {
  Line* const set = set_begin(addr);
  const std::uint64_t tag = tag_of(addr);
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& line = set[w];
    if (line.valid && line.tag == tag) {
      if (touch && repl_ == Replacement::Lru) line.stamp = ++clock_;
      return &line;
    }
  }
  return nullptr;
}

const CacheModel::Line* CacheModel::lookup(std::uint64_t addr) const {
  const Line* const set = set_begin(addr);
  const std::uint64_t tag = tag_of(addr);
  for (std::size_t w = 0; w < ways_; ++w) {
    if (set[w].valid && set[w].tag == tag) return &set[w];
  }
  return nullptr;
}

CacheModel::Line& CacheModel::victim(std::uint64_t addr) {
  Line* const set = set_begin(addr);
  for (std::size_t w = 0; w < ways_; ++w) {
    if (!set[w].valid) return set[w];
  }
  if (repl_ == Replacement::Random) {
    return set[rng_.below(ways_)];
  }
  // LRU and FIFO both evict the minimum stamp; they differ in when the
  // stamp refreshes (lookup vs fill).
  Line* best = set;
  for (std::size_t w = 1; w < ways_; ++w) {
    if (set[w].stamp < best->stamp) best = &set[w];
  }
  return *best;
}

void CacheModel::fill(Line& way, std::uint64_t addr, bool dirty) {
  way.valid = true;
  way.dirty = dirty;
  way.tag = tag_of(addr);
  way.stamp = ++clock_;
  way.meta = 0;
}

bool CacheModel::invalidate(std::uint64_t addr) {
  if (Line* line = lookup(addr, /*touch=*/false)) {
    line->valid = false;
    line->dirty = false;
    return true;
  }
  return false;
}

void CacheModel::save(liberty::core::StateWriter& w) const {
  w.put_u64(clock_);
  liberty::core::save_rng(w, rng_);
  std::size_t live = 0;
  for (const Line& line : lines_) live += line.valid ? 1 : 0;
  w.put_size(live);
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const Line& line = lines_[i];
    if (!line.valid) continue;
    w.put_size(i);
    w.put_bool(line.dirty);
    w.put_u64(line.tag);
    w.put_u64(line.stamp);
    w.put_i64(line.meta);
  }
}

void CacheModel::load(liberty::core::StateReader& r) {
  clock_ = r.get_u64();
  liberty::core::load_rng(r, rng_);
  std::fill(lines_.begin(), lines_.end(), Line{});
  const std::size_t live = r.get_size();
  if (live > lines_.size()) {
    throw liberty::SimulationError(
        "cache restore in module '" + r.who() + "': " + std::to_string(live) +
        " valid ways saved, the cache has " + std::to_string(lines_.size()));
  }
  std::size_t next = 0;  // the smallest index the next way may carry
  for (std::size_t k = 0; k < live; ++k) {
    const std::size_t i = r.get_size();
    if (i >= lines_.size()) {
      throw liberty::SimulationError(
          "cache restore in module '" + r.who() + "': way index " +
          std::to_string(i) + " out of range (" +
          std::to_string(lines_.size()) + " ways)");
    }
    if (i < next) {
      throw liberty::SimulationError(
          "cache restore in module '" + r.who() + "': way index " +
          std::to_string(i) + " after " + std::to_string(next - 1) +
          " (indices must be strictly increasing)");
    }
    next = i + 1;
    Line& line = lines_[i];
    line.valid = true;
    line.dirty = r.get_bool();
    line.tag = r.get_u64();
    line.stamp = r.get_u64();
    line.meta = r.get_i64();
  }
}

CacheModel::Replacement replacement_from_string(const std::string& s) {
  if (s == "lru") return CacheModel::Replacement::Lru;
  if (s == "fifo") return CacheModel::Replacement::Fifo;
  if (s == "random") return CacheModel::Replacement::Random;
  throw liberty::ElaborationError("unknown replacement policy '" + s + "'");
}

// ---------------------------------------------------------------------------
// CacheModule
// ---------------------------------------------------------------------------

CacheModule::CacheModule(const std::string& name, const Params& params)
    : Module(name),
      cpu_req_(add_in("cpu_req", AckMode::Managed, 0, 1)),
      cpu_resp_(add_out("cpu_resp", 0, 1)),
      mem_req_(add_out("mem_req", 0, 1)),
      mem_resp_(add_in("mem_resp", AckMode::AutoAccept, 0, 1)),
      model_(params.get_size("sets", 64),
             params.get_size("ways", 2),
             params.get_size("line_words", 4),
             replacement_from_string(
                 params.get_string("replacement", "lru")),
             static_cast<std::uint64_t>(params.get_int("seed", 7))),
      hit_latency_(params.get_size("hit_latency", 1)),
      mshr_limit_(params.get_size("mshrs", 4)) {
  write_allocate_ = params.get_bool("write_allocate", true);
  if (!write_allocate_) {
    throw liberty::ElaborationError(
        "upl.cache: only write-allocate is implemented");
  }
}

void CacheModule::cycle_start(Cycle c) {
  if (!resp_queue_.empty() && resp_ready_.front() <= c) {
    cpu_resp_.send(resp_queue_.front());
  } else {
    cpu_resp_.idle();
  }
  if (!memq_.empty()) {
    mem_req_.send(memq_.front());
  } else {
    mem_req_.idle();
  }
  if (mshrs_.size() < mshr_limit_) {
    cpu_req_.ack();
  } else {
    cpu_req_.nack();
    stats().counter("mshr_stalls").inc();
  }
}

void CacheModule::handle_cpu_request(const liberty::Value& v) {
  const auto req = v.as<MemReq>();
  stats().counter("accesses").inc();
  auto& data = line_data_;

  if (CacheModel::Line* line = model_.lookup(req->addr)) {
    stats().counter("hits").inc();
    const std::uint64_t base = model_.line_addr(req->addr);
    auto& words = data[base];
    const std::size_t off = static_cast<std::size_t>(req->addr - base);
    std::int64_t result = 0;
    if (req->op == MemReq::Op::Read) {
      result = words[off];
    } else {
      words[off] = req->data;
      line->dirty = true;
    }
    resp_queue_.push_back(liberty::Value::make<MemResp>(
        req->tag, result, req->op == MemReq::Op::Write));
    resp_ready_.push_back(now() + hit_latency_);
    return;
  }

  stats().counter("misses").inc();
  const std::uint64_t base = model_.line_addr(req->addr);
  // Coalesce with an in-flight fetch of the same line.
  for (auto& m : mshrs_) {
    if (m.line == base) {
      m.waiters.push_back(v);
      return;
    }
  }
  Mshr m;
  m.line = base;
  m.tag = next_fill_tag_++;
  m.waiters.push_back(v);
  mshrs_.push_back(std::move(m));
  const bool exclusive = req->op == MemReq::Op::Write;
  memq_.push_back(liberty::Value::make<LineReq>(
      exclusive ? LineReq::Kind::FetchExclusive : LineReq::Kind::Fetch, base,
      mshrs_.back().tag, id()));
}

void CacheModule::end_of_cycle() {
  if (cpu_resp_.transferred()) {
    resp_queue_.pop_front();
    resp_ready_.pop_front();
  }
  if (mem_req_.transferred()) memq_.pop_front();

  if (cpu_req_.transferred()) handle_cpu_request(cpu_req_.data());

  if (mem_resp_.transferred()) {
    const auto fill = mem_resp_.data().as<LineResp>();
    auto& data = line_data_;
    // Install, evicting (and writing back) a victim if necessary.
    CacheModel::Line& way = model_.victim(fill->line);
    if (way.valid) {
      const std::size_t set = model_.set_of(fill->line);
      const std::uint64_t victim_addr = model_.addr_of(way, set);
      stats().counter("evictions").inc();
      if (way.dirty) {
        stats().counter("writebacks").inc();
        memq_.push_back(liberty::Value::make<LineReq>(
            LineReq::Kind::Writeback, victim_addr, 0, id(),
            data[victim_addr]));
      }
      data.erase(victim_addr);
    }
    model_.fill(way, fill->line, /*dirty=*/false);
    data[fill->line] = fill->words;

    // Complete every waiter coalesced onto this line.
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
      if (mshrs_[i].tag != fill->tag) continue;
      for (const auto& wv : mshrs_[i].waiters) {
        const auto req = wv.as<MemReq>();
        auto& words = data[fill->line];
        const auto off = static_cast<std::size_t>(req->addr - fill->line);
        std::int64_t result = 0;
        if (req->op == MemReq::Op::Read) {
          result = words[off];
        } else {
          words[off] = req->data;
          if (CacheModel::Line* line = model_.lookup(req->addr)) {
            line->dirty = true;
          }
        }
        resp_queue_.push_back(liberty::Value::make<MemResp>(
            req->tag, result, req->op == MemReq::Op::Write));
        resp_ready_.push_back(now() + 1);
      }
      mshrs_.erase(mshrs_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  stats().accumulator("mshr_occupancy").add(static_cast<double>(mshrs_.size()));
}

void CacheModule::save_state(liberty::core::StateWriter& w) const {
  model_.save(w);
  w.put_size(line_data_.size());
  for (const auto& [line, words] : line_data_) {
    w.put_u64(line);
    w.put_size(words.size());
    for (const std::int64_t word : words) w.put_i64(word);
  }
  w.put_size(mshrs_.size());
  for (const Mshr& m : mshrs_) {
    w.put_u64(m.line);
    w.put_u64(m.tag);
    w.put_size(m.waiters.size());
    for (const liberty::Value& v : m.waiters) w.put(v);
  }
  w.put_size(resp_queue_.size());
  for (std::size_t i = 0; i < resp_queue_.size(); ++i) {
    w.put(resp_queue_[i]);
    w.put_u64(resp_ready_[i]);
  }
  w.put_size(memq_.size());
  for (const liberty::Value& v : memq_) w.put(v);
  w.put_u64(next_fill_tag_);
}

void CacheModule::load_state(liberty::core::StateReader& r) {
  model_.load(r);
  line_data_.clear();
  const std::size_t lines = r.get_size();
  for (std::size_t i = 0; i < lines; ++i) {
    const std::uint64_t line = r.get_u64();
    std::vector<std::int64_t> words;
    const std::size_t n = r.get_size();
    for (std::size_t j = 0; j < n; ++j) words.push_back(r.get_i64());
    line_data_.insert_or_assign(line_data_.end(), line, std::move(words));
  }
  mshrs_.clear();
  const std::size_t mshrs = r.get_size();
  for (std::size_t i = 0; i < mshrs; ++i) {
    Mshr m;
    m.line = r.get_u64();
    m.tag = r.get_u64();
    const std::size_t waiters = r.get_size();
    for (std::size_t j = 0; j < waiters; ++j) m.waiters.push_back(r.get());
    mshrs_.push_back(std::move(m));
  }
  resp_queue_.clear();
  resp_ready_.clear();
  const std::size_t resps = r.get_size();
  for (std::size_t i = 0; i < resps; ++i) {
    resp_queue_.push_back(r.get());
    resp_ready_.push_back(r.get_u64());
  }
  memq_.clear();
  const std::size_t reqs = r.get_size();
  for (std::size_t i = 0; i < reqs; ++i) memq_.push_back(r.get());
  next_fill_tag_ = r.get_u64();
}

void CacheModule::declare_deps(Deps& deps) const {
  deps.state_only(cpu_resp_);
  deps.state_only(mem_req_);
  deps.state_only(cpu_req_);
}

}  // namespace liberty::upl
