#include "liberty/mpl/ordering.hpp"

#include "liberty/pcl/payloads.hpp"
#include "liberty/support/error.hpp"

namespace liberty::mpl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;
using liberty::pcl::MemReq;
using liberty::pcl::MemResp;

OrderingCtl::OrderingCtl(const std::string& name, const Params& params)
    : Module(name),
      cpu_req_(add_in("cpu_req", AckMode::Managed, 0, 1)),
      cpu_resp_(add_out("cpu_resp", 0, 1)),
      mem_req_(add_out("mem_req", 0, 1)),
      mem_resp_(add_in("mem_resp", AckMode::AutoAccept, 0, 1)),
      depth_(params.get_size("depth", 8)),
      drain_delay_(
          static_cast<std::uint64_t>(params.get_int("drain_delay", 0))) {
  const std::string mode = params.get_string("mode", "tso");
  if (mode != "sc" && mode != "tso") {
    throw liberty::ElaborationError("mpl.ordering '" + name +
                                    "': unknown mode '" + mode + "'");
  }
  tso_ = mode == "tso";
}

void OrderingCtl::cycle_start(Cycle) {
  if (!cpu_respq_.empty()) {
    cpu_resp_.send(cpu_respq_.front());
  } else {
    cpu_resp_.idle();
  }
  // Loads bypass queued store drains (TSO's permitted reordering); under
  // SC loads travel through drainq_ in program order instead.
  offering_load_ = false;
  if (load_req_) {
    mem_req_.send(*load_req_);
    offering_load_ = true;
  } else if (!drainq_.empty() && drain_ready_.front() <= now()) {
    mem_req_.send(drainq_.front());
  } else {
    mem_req_.idle();
  }
  // Accept a new processor access when nothing of the relevant kind is in
  // flight.  Under SC, *any* outstanding access blocks; under TSO only an
  // outstanding load or a full store buffer does.
  bool can_accept;
  if (tso_) {
    can_accept = !pending_load_ && buffer_.size() < depth_;
  } else {
    can_accept = !pending_load_ && buffer_.empty() && drainq_.empty() &&
                 drain_tags_outstanding_ == 0;
  }
  if (can_accept) {
    cpu_req_.ack();
  } else {
    cpu_req_.nack();
    stats().counter("drain_stalls").inc();
  }
}

void OrderingCtl::end_of_cycle() {
  if (cpu_resp_.transferred()) cpu_respq_.pop_front();
  if (mem_req_.transferred()) {
    if (offering_load_) {
      load_req_.reset();
    } else {
      drainq_.pop_front();
      drain_ready_.pop_front();
    }
  }

  if (mem_resp_.transferred()) {
    const auto resp = mem_resp_.data().as<MemResp>();
    if (resp->tag >= (1u << 20)) {
      // A drained store completed.
      --drain_tags_outstanding_;
      if (!buffer_.empty()) buffer_.pop_front();
    } else {
      // Load (or SC store) response: forward to the processor.
      cpu_respq_.push_back(mem_resp_.data());
      pending_load_.reset();
    }
  }

  if (!cpu_req_.transferred()) return;
  const liberty::Value v = cpu_req_.data();
  const auto req = v.as<MemReq>();

  if (req->op == MemReq::Op::Write) {
    stats().counter("stores").inc();
    if (tso_) {
      // Complete immediately into the store buffer; drain in order.
      buffer_.push_back(BufferedStore{req->addr, req->data});
      drainq_.push_back(liberty::Value::make<MemReq>(
          MemReq::Op::Write, req->addr, req->data, next_tag_++));
      drain_ready_.push_back(now() + drain_delay_);
      ++drain_tags_outstanding_;
      cpu_respq_.push_back(
          liberty::Value::make<MemResp>(req->tag, req->data, true));
    } else {
      drainq_.push_back(v);
      drain_ready_.push_back(now());
      pending_load_ = v;  // SC: block until the write is globally done
    }
    return;
  }

  stats().counter("loads").inc();
  if (tso_) {
    // Forward from the youngest matching buffered store.
    for (auto it = buffer_.rbegin(); it != buffer_.rend(); ++it) {
      if (it->addr == req->addr) {
        stats().counter("forwards").inc();
        cpu_respq_.push_back(
            liberty::Value::make<MemResp>(req->tag, it->data, false));
        return;
      }
    }
  }
  pending_load_ = v;
  if (tso_) {
    load_req_ = v;  // priority path: may pass the buffered stores
  } else {
    drainq_.push_back(v);
    drain_ready_.push_back(now());
  }
}

void OrderingCtl::declare_deps(Deps& deps) const {
  deps.state_only(cpu_resp_);
  deps.state_only(mem_req_);
  deps.state_only(cpu_req_);
}

void OrderingCtl::save_state(liberty::core::StateWriter& w) const {
  // offering_load_ is per-cycle scratch, recomputed in cycle_start.
  w.put_size(buffer_.size());
  for (const BufferedStore& s : buffer_) {
    w.put_u64(s.addr);
    w.put_i64(s.data);
  }
  w.put_size(drainq_.size());
  for (const auto& v : drainq_) w.put(v);
  for (const liberty::core::Cycle c : drain_ready_) w.put_u64(c);
  w.put_size(cpu_respq_.size());
  for (const auto& v : cpu_respq_) w.put(v);
  w.put_bool(pending_load_.has_value());
  if (pending_load_) w.put(*pending_load_);
  w.put_bool(load_req_.has_value());
  if (load_req_) w.put(*load_req_);
  w.put_u64(drain_tags_outstanding_);
  w.put_u64(next_tag_);
}

void OrderingCtl::load_state(liberty::core::StateReader& r) {
  buffer_.clear();
  const std::size_t stores = r.get_size();
  for (std::size_t i = 0; i < stores; ++i) {
    const std::uint64_t addr = r.get_u64();
    const std::int64_t data = r.get_i64();
    buffer_.push_back(BufferedStore{addr, data});
  }
  drainq_.clear();
  drain_ready_.clear();
  const std::size_t drains = r.get_size();
  for (std::size_t i = 0; i < drains; ++i) drainq_.push_back(r.get());
  for (std::size_t i = 0; i < drains; ++i) drain_ready_.push_back(r.get_u64());
  cpu_respq_.clear();
  const std::size_t resps = r.get_size();
  for (std::size_t i = 0; i < resps; ++i) cpu_respq_.push_back(r.get());
  pending_load_.reset();
  if (r.get_bool()) pending_load_ = r.get();
  load_req_.reset();
  if (r.get_bool()) load_req_ = r.get();
  drain_tags_outstanding_ = r.get_u64();
  next_tag_ = r.get_u64();
}

}  // namespace liberty::mpl
