#include "liberty/ccl/router.hpp"

#include "liberty/support/error.hpp"

namespace liberty::ccl {

using liberty::core::AckMode;
using liberty::core::Cycle;
using liberty::core::Deps;
using liberty::core::Params;

namespace {
PowerConfig power_config_from(const Params& params, std::size_t ports,
                              std::size_t vcs, std::size_t depth) {
  PowerConfig cfg;
  cfg.flit_bits = params.get_size("flit_bits", 64);
  cfg.ports = ports;
  cfg.vcs = vcs;
  cfg.buffer_depth = depth;
  cfg.vdd = params.get_real("vdd", 1.0);
  cfg.tech_scale = params.get_real("tech_scale", 1.0);
  return cfg;
}
}  // namespace

Router::Router(const std::string& name, const Params& params)
    : Module(name),
      in_(add_in("in", AckMode::Managed, 1)),
      out_(add_out("out", 1)),
      id_num_(params.get_size("id", 0)),
      nodes_(params.get_size("nodes", 1)),
      routing_(params.get_string("routing", "xy")),
      cols_(params.get_size("cols", 1)),
      rows_(params.get_size("rows", 1)),
      vcs_(params.get_size("vcs", 2)),
      depth_(params.get_size("depth", 4)),
      pipeline_(params.get_size("pipeline", 1)),
      power_(power_config_from(params, 5, vcs_, depth_)),
      thermal_(params.get_real("ambient_c", 45.0),
               params.get_real("r_thermal", 2.0),
               params.get_real("thermal_tau", 10000.0)) {
  if (routing_ != "xy" && routing_ != "torus_xy" && routing_ != "ring" &&
      routing_ != "dst" && routing_ != "custom") {
    throw liberty::ElaborationError("ccl.router '" + name +
                                    "': unknown routing '" + routing_ + "'");
  }
  if (vcs_ == 0 || depth_ == 0) {
    throw liberty::ElaborationError("ccl.router '" + name +
                                    "': vcs and depth must be >= 1");
  }
}

void Router::init() {
  buffers_.assign(in_.width() * vcs_, {});
  last_route_.assign(in_.width() * vcs_, 0);
  rr_.assign(out_.width(), 0);
  grant_.assign(out_.width(), -1);
  out_lock_.assign(out_.width(), -1);
  candidates_.assign(out_.width(), {});
}

std::size_t Router::route(const Flit& f) const {
  if (route_fn_) return route_fn_(f);
  if (routing_ == "dst") return f.dst % out_.width();
  if (f.dst == id_num_) return 0;  // local ejection
  if (routing_ == "ring") {
    // Shortest direction around the ring: 1 = clockwise (+1), 2 = ccw.
    const std::size_t fwd_dist = (f.dst + nodes_ - id_num_) % nodes_;
    return fwd_dist <= nodes_ - fwd_dist ? 1 : 2;
  }
  // XY dimension-ordered routing on a cols_ x rows_ mesh or torus.
  const std::size_t my_x = id_num_ % cols_;
  const std::size_t my_y = id_num_ / cols_;
  const std::size_t dx = f.dst % cols_;
  const std::size_t dy = f.dst / cols_;
  if (routing_ == "torus_xy") {
    // Shortest direction per dimension, wrap links allowed.
    if (dx != my_x) {
      const std::size_t east_dist = (dx + cols_ - my_x) % cols_;
      return east_dist <= cols_ - east_dist ? 1 : 2;
    }
    const std::size_t south_dist = (dy + rows_ - my_y) % rows_;
    return south_dist <= rows_ - south_dist ? 4 : 3;
  }
  if (dx > my_x) return 1;  // east
  if (dx < my_x) return 2;  // west
  if (dy > my_y) return 4;  // south (row index grows southward)
  return 3;                 // north
}

void Router::cycle_start(Cycle c) {
  power_.on_cycle();
  thermal_.step(power_.avg_power());

  // Switch allocation: for each output, round-robin over the buffers whose
  // eligible head wants it.  An output locked by an in-flight packet only
  // serves its owner (wormhole discipline).  One pass over the buffers
  // sorts each eligible head to the output it wants, in buffer order.
  for (auto& list : candidates_) list.clear();
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    const auto& q = buffers_[b];
    if (q.empty() || q.front().ready > c) continue;
    const std::size_t o = q.front().out_port;
    if (o >= candidates_.size()) continue;
    if (out_lock_[o] >= 0) {
      if (static_cast<std::size_t>(out_lock_[o]) != b) continue;
    } else if (!q.front().value.as<Flit>()->head) {
      continue;  // a new packet may claim the output only with its head
    }
    candidates_[o].push_back(b);
  }
  for (std::size_t o = 0; o < out_.width(); ++o) {
    const std::vector<std::size_t>& candidates = candidates_[o];
    if (candidates.empty()) {
      grant_[o] = -1;
      out_.idle(o);
      continue;
    }
    power_.on_arbitration(candidates.size());
    if (candidates.size() > 1) {
      stats().bind(alloc_conflicts_stat_, "alloc_conflicts");
      alloc_conflicts_stat_->inc();
    }
    std::size_t win = candidates.front();
    for (const std::size_t b : candidates) {
      if (b >= rr_[o]) {
        win = b;
        break;
      }
    }
    grant_[o] = static_cast<int>(win);
    out_.send_at(o, buffers_[win].front().value);
  }

  std::size_t occupancy = 0;
  for (const auto& q : buffers_) occupancy += q.size();
  stats().bind(occupancy_stat_, "occupancy");
  occupancy_stat_->add(static_cast<double>(occupancy));
}

void Router::react() {
  // Input acceptance: a flit is admitted iff its VC's buffer has space.
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (in_.ack_driven(i) || !in_.forward_known(i)) continue;
    if (!in_.has_data(i)) {
      in_.nack(i);
      continue;
    }
    const auto flit = in_.data(i).try_as<Flit>();
    if (flit == nullptr) {
      throw liberty::SimulationError("ccl.router '" + name() +
                                     "': non-flit value on input " +
                                     std::to_string(i));
    }
    const std::size_t vc = flit->vc % vcs_;
    if (buffers_[buffer_index(i, vc)].size() < depth_) {
      in_.ack(i);
    } else {
      in_.nack(i);
      stats().bind(buffer_stalls_stat_, "buffer_stalls");
      buffer_stalls_stat_->inc();
    }
  }
}

void Router::end_of_cycle() {
  for (std::size_t o = 0; o < out_.width(); ++o) {
    if (grant_[o] < 0 || !out_.transferred(o)) continue;
    auto& q = buffers_[static_cast<std::size_t>(grant_[o])];
    const auto flit = q.front().value.as<Flit>();
    // Wormhole channel lock: held from head to tail.
    if (flit->head && !flit->tail) {
      out_lock_[o] = grant_[o];
    } else if (flit->tail) {
      out_lock_[o] = -1;
    }
    q.pop_front();
    power_.on_buffer_read();
    power_.on_crossbar_traversal();
    stats().bind(flits_out_stat_, "flits_out");
    flits_out_stat_->inc();
    if (o == 0) {
      stats().bind(delivered_stat_, "delivered");
      delivered_stat_->inc();
    }
    rr_[o] = (static_cast<std::size_t>(grant_[o]) + 1) % buffers_.size();
  }
  for (std::size_t i = 0; i < in_.width(); ++i) {
    if (!in_.transferred(i)) continue;
    const auto flit = in_.data(i).as<Flit>();
    const std::size_t vc = flit->vc % vcs_;
    // Heads decide the route; body/tail flits follow their head.
    const std::size_t buf = buffer_index(i, vc);
    const std::size_t out_port =
        flit->head ? route(*flit) : last_route_[buf];
    if (flit->head) last_route_[buf] = out_port;
    // Record the hop taken through this router on the stored copy.
    liberty::Value v(std::static_pointer_cast<const Payload>(flit->hopped()));
    buffers_[buf].push_back(Entry{std::move(v), out_port, now() + pipeline_});
    power_.on_buffer_write();
    stats().bind(flits_in_stat_, "flits_in");
    flits_in_stat_->inc();
  }
}

void Router::save_state(liberty::core::StateWriter& w) const {
  w.put_size(buffers_.size());
  for (const auto& q : buffers_) {
    w.put_size(q.size());
    for (const Entry& e : q) {
      w.put(e.value);
      w.put_size(e.out_port);
      w.put_u64(e.ready);
    }
  }
  for (const std::size_t p : last_route_) w.put_size(p);
  for (const std::size_t p : rr_) w.put_size(p);
  for (const int p : out_lock_) w.put_i64(p);
}

void Router::load_state(liberty::core::StateReader& r) {
  const std::size_t bufs = r.get_size();
  if (bufs != buffers_.size()) {
    throw liberty::SimulationError("ccl.router '" + name() +
                                   "': snapshot buffer count mismatch");
  }
  for (auto& q : buffers_) {
    q.clear();
    const std::size_t n = r.get_size();
    for (std::size_t i = 0; i < n; ++i) {
      liberty::Value v = r.get();
      const std::size_t out_port = r.get_size();
      const Cycle ready = r.get_u64();
      q.push_back(Entry{std::move(v), out_port, ready});
    }
  }
  for (auto& p : last_route_) p = r.get_size();
  for (auto& p : rr_) p = r.get_size();
  for (auto& p : out_lock_) p = static_cast<int>(r.get_i64());
}

void Router::declare_deps(Deps& deps) const {
  deps.state_only(out_);
  deps.depends(in_, {liberty::core::fwd(in_)});
}

}  // namespace liberty::ccl
