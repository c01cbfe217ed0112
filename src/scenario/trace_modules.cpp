#include "liberty/scenario/trace_modules.hpp"

#include <algorithm>
#include <sstream>

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::scenario {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;
using liberty::pcl::MemReq;
using liberty::pcl::MemResp;

// ---------------------------------------------------------------------------
// TraceSource
// ---------------------------------------------------------------------------

TraceSource::TraceSource(const std::string& name, const Params& params)
    : Module(name),
      host_req_(add_out("host_req", 0, 1)),
      host_resp_(add_in("host_resp", AckMode::AutoAccept, 0, 1)),
      node_(params.get_size("node", 0)),
      tx_ring_(params.get_size("tx_ring", 8192)),
      entries_(params.get_size("ring_entries", 8)),
      payload_base_(params.get_size("payload_base", 4096)),
      slot_stride_(params.get_size("slot_stride", 64)) {
  if (entries_ == 0 || slot_stride_ == 0) {
    throw liberty::ElaborationError(
        "scenario.trace_source '" + name +
        "': ring_entries and slot_stride must be >= 1");
  }
  for (const TraceRequest& r : parse_trace(params.get_string("trace", ""))) {
    if (r.src != node_) continue;
    if (r.words > slot_stride_) {
      throw liberty::ElaborationError(
          "scenario.trace_source '" + name + "': request " +
          std::to_string(r.id) + " payload exceeds slot_stride");
    }
    reqs_.push_back(r);
  }
}

std::int64_t TraceSource::payload_word(std::size_t k) const {
  const TraceRequest& r = reqs_[next_];
  if (k == 0) return static_cast<std::int64_t>(r.id);
  if (k == 1) return static_cast<std::int64_t>(born_);
  return static_cast<std::int64_t>(r.id * 7919 + k);  // deterministic fill
}

void TraceSource::issue_read(std::uint64_t addr) {
  op_ = Flight{liberty::Value::make<MemReq>(MemReq::Op::Read, addr, 0,
                                            next_tag_++),
               false};
}

void TraceSource::issue_write(std::uint64_t addr, std::int64_t data) {
  op_ = Flight{liberty::Value::make<MemReq>(MemReq::Op::Write, addr, data,
                                            next_tag_++),
               false};
}

void TraceSource::cycle_start(Cycle) {
  if (op_ && !op_->sent) {
    host_req_.send(op_->req);
  } else {
    host_req_.idle();
  }
}

void TraceSource::maybe_start() {
  if (phase_ != Phase::Idle || next_ >= reqs_.size()) return;
  if (now() < reqs_[next_].cycle) return;
  phase_ = Phase::Poll;
  issue_read(desc_addr() + 2);
}

void TraceSource::advance(std::int64_t resp) {
  switch (phase_) {
    case Phase::Poll:
      // The slot is usable when empty (0) or already completed (2).
      if (resp == 0 || resp == 2) {
        born_ = now();
        word_ = 0;
        phase_ = Phase::Payload;
        issue_write(payload_addr() + word_, payload_word(word_));
      } else {
        stats().counter("poll_retries").inc();
        issue_read(desc_addr() + 2);
      }
      break;
    case Phase::Payload:
      ++word_;
      if (word_ < reqs_[next_].words) {
        issue_write(payload_addr() + word_, payload_word(word_));
      } else {
        phase_ = Phase::DescAddr;
        issue_write(desc_addr() + 0,
                    static_cast<std::int64_t>(payload_addr()));
      }
      break;
    case Phase::DescAddr:
      phase_ = Phase::DescLen;
      issue_write(desc_addr() + 1,
                  static_cast<std::int64_t>(reqs_[next_].words));
      break;
    case Phase::DescLen:
      phase_ = Phase::DescDst;
      issue_write(desc_addr() + 3, static_cast<std::int64_t>(reqs_[next_].dst));
      break;
    case Phase::DescDst:
      // Status = 1 last: the firmware must not see a half-built descriptor.
      phase_ = Phase::DescGo;
      issue_write(desc_addr() + 2, 1);
      break;
    case Phase::DescGo:
      stats().counter("injected").inc();
      ++injected_;
      slot_ = (slot_ + 1) % entries_;
      ++next_;
      phase_ = Phase::Idle;
      break;
    case Phase::Idle:
      break;  // no transaction is ever in flight while idle
  }
}

void TraceSource::end_of_cycle() {
  if (op_ && !op_->sent && host_req_.transferred()) op_->sent = true;
  if (host_resp_.transferred()) {
    const auto resp = host_resp_.data().as<MemResp>();
    op_.reset();
    advance(resp->data);
  }
  if (!op_) maybe_start();
}

void TraceSource::declare_deps(Deps& deps) const {
  deps.state_only(host_req_);
}

void TraceSource::save_state(liberty::core::StateWriter& w) const {
  w.put_u64(static_cast<std::uint64_t>(phase_));
  w.put_size(next_);
  w.put_u64(slot_);
  w.put_size(word_);
  w.put_u64(born_);
  w.put_bool(op_.has_value());
  if (op_) {
    w.put(op_->req);
    w.put_bool(op_->sent);
  }
  w.put_u64(injected_);
  w.put_u64(next_tag_);
}

void TraceSource::load_state(liberty::core::StateReader& r) {
  phase_ = static_cast<Phase>(r.get_u64());
  next_ = r.get_size();
  slot_ = r.get_u64();
  word_ = r.get_size();
  born_ = r.get_u64();
  op_.reset();
  if (r.get_bool()) {
    Flight f;
    f.req = r.get();
    f.sent = r.get_bool();
    op_ = std::move(f);
  }
  injected_ = r.get_u64();
  next_tag_ = r.get_u64();
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TraceSink::TraceSink(const std::string& name, const Params& params)
    : Module(name),
      host_req_(add_out("host_req", 0, 1)),
      host_resp_(add_in("host_resp", AckMode::AutoAccept, 0, 1)),
      node_(params.get_size("node", 0)),
      rx_ring_(params.get_size("rx_ring", 8448)),
      entries_(params.get_size("ring_entries", 8)),
      buf_base_(params.get_size("buf_base", 6144)),
      slot_stride_(params.get_size("slot_stride", 64)),
      latency_buckets_(params.get_size("latency_buckets", 64)),
      latency_bucket_width_(static_cast<double>(
          params.get_int("latency_bucket_width", 32))) {
  if (entries_ == 0 || slot_stride_ == 0) {
    throw liberty::ElaborationError(
        "scenario.trace_sink '" + name +
        "': ring_entries and slot_stride must be >= 1");
  }
  // First transaction: arm slot 0's buffer address.  Ports may not be
  // driven from a constructor, so only the pending op is staged here.
  issue_write(desc_addr() + 0, static_cast<std::int64_t>(buf_addr()));
}

void TraceSink::issue_read(std::uint64_t addr) {
  op_ = Flight{liberty::Value::make<MemReq>(MemReq::Op::Read, addr, 0,
                                            next_tag_++),
               false};
}

void TraceSink::issue_write(std::uint64_t addr, std::int64_t data) {
  op_ = Flight{liberty::Value::make<MemReq>(MemReq::Op::Write, addr, data,
                                            next_tag_++),
               false};
}

void TraceSink::cycle_start(Cycle) {
  if (op_ && !op_->sent) {
    host_req_.send(op_->req);
  } else {
    host_req_.idle();
  }
}

void TraceSink::finish_record() {
  Record rec;
  rec.id = len_ >= 1 ? static_cast<std::uint64_t>(buf_[0]) : 0;
  rec.src = src_;
  rec.born = len_ >= 2 ? static_cast<std::uint64_t>(buf_[1]) : seen_;
  rec.done = seen_;
  rec.words = static_cast<std::size_t>(len_);
  records_.push_back(rec);
  stats().counter("completed").inc();
  const double lat = rec.done >= rec.born
                         ? static_cast<double>(rec.done - rec.born)
                         : 0.0;
  stats().histogram("latency", latency_buckets_, latency_bucket_width_)
      .add(lat);
  stats().accumulator("latency_cycles").add(lat);
}

void TraceSink::advance(std::int64_t resp) {
  switch (phase_) {
    case Phase::ArmAddr:
      phase_ = Phase::ArmStatus;
      issue_write(desc_addr() + 2, 1);
      break;
    case Phase::ArmStatus:
      ++slot_;
      if (slot_ < entries_) {
        phase_ = Phase::ArmAddr;
        issue_write(desc_addr() + 0, static_cast<std::int64_t>(buf_addr()));
      } else {
        slot_ = 0;
        phase_ = Phase::Poll;
        issue_read(desc_addr() + 2);
      }
      break;
    case Phase::Poll:
      if (resp == 2) {
        seen_ = now();
        phase_ = Phase::ReadLen;
        issue_read(desc_addr() + 1);
      } else {
        slot_ = (slot_ + 1) % entries_;
        issue_read(desc_addr() + 2);
      }
      break;
    case Phase::ReadLen:
      len_ = resp < 0 ? 0
                      : std::min(static_cast<std::uint64_t>(resp),
                                 slot_stride_);
      phase_ = Phase::ReadSrc;
      issue_read(desc_addr() + 3);
      break;
    case Phase::ReadSrc:
      src_ = static_cast<std::uint64_t>(resp);
      buf_.clear();
      word_ = 0;
      if (len_ > 0) {
        phase_ = Phase::ReadWord;
        issue_read(buf_addr() + word_);
      } else {
        finish_record();
        phase_ = Phase::Rearm;
        issue_write(desc_addr() + 2, 1);
      }
      break;
    case Phase::ReadWord:
      buf_.push_back(resp);
      ++word_;
      if (word_ < len_) {
        issue_read(buf_addr() + word_);
      } else {
        finish_record();
        phase_ = Phase::Rearm;
        issue_write(desc_addr() + 2, 1);
      }
      break;
    case Phase::Rearm:
      slot_ = (slot_ + 1) % entries_;
      phase_ = Phase::Poll;
      issue_read(desc_addr() + 2);
      break;
  }
}

void TraceSink::end_of_cycle() {
  if (op_ && !op_->sent && host_req_.transferred()) op_->sent = true;
  if (host_resp_.transferred()) {
    const auto resp = host_resp_.data().as<MemResp>();
    op_.reset();
    advance(resp->data);
  }
}

void TraceSink::declare_deps(Deps& deps) const {
  deps.state_only(host_req_);
}

std::string TraceSink::render_records() const {
  std::ostringstream os;
  os << "# sink node " << node_ << '\n';
  for (const Record& rec : records_) {
    os << "rec " << rec.id << " src=" << rec.src << " born=" << rec.born
       << " done=" << rec.done << " words=" << rec.words << '\n';
  }
  return os.str();
}

void TraceSink::save_state(liberty::core::StateWriter& w) const {
  w.put_u64(static_cast<std::uint64_t>(phase_));
  w.put_u64(slot_);
  w.put_size(word_);
  w.put_u64(len_);
  w.put_u64(src_);
  w.put_u64(seen_);
  w.put_size(buf_.size());
  for (const std::int64_t v : buf_) w.put_i64(v);
  w.put_bool(op_.has_value());
  if (op_) {
    w.put(op_->req);
    w.put_bool(op_->sent);
  }
  w.put_size(records_.size());
  for (const Record& rec : records_) {
    w.put_u64(rec.id);
    w.put_u64(rec.src);
    w.put_u64(rec.born);
    w.put_u64(rec.done);
    w.put_size(rec.words);
  }
  w.put_u64(next_tag_);
}

void TraceSink::load_state(liberty::core::StateReader& r) {
  phase_ = static_cast<Phase>(r.get_u64());
  slot_ = r.get_u64();
  word_ = r.get_size();
  len_ = r.get_u64();
  src_ = r.get_u64();
  seen_ = r.get_u64();
  buf_.clear();
  const std::size_t words = r.get_size();
  for (std::size_t i = 0; i < words; ++i) buf_.push_back(r.get_i64());
  op_.reset();
  if (r.get_bool()) {
    Flight f;
    f.req = r.get();
    f.sent = r.get_bool();
    op_ = std::move(f);
  }
  records_.clear();
  const std::size_t recs = r.get_size();
  for (std::size_t i = 0; i < recs; ++i) {
    Record rec;
    rec.id = r.get_u64();
    rec.src = r.get_u64();
    rec.born = r.get_u64();
    rec.done = r.get_u64();
    rec.words = r.get_size();
    records_.push_back(rec);
  }
  next_tag_ = r.get_u64();
}

}  // namespace liberty::scenario
