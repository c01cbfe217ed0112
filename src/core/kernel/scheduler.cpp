#include "liberty/core/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "liberty/core/fault.hpp"
#include "liberty/support/error.hpp"

namespace liberty::core {

namespace detail {
// Out of line so the untimed call_react fast path stays branch+call only.
void timed_react(Module& m, ResolveCtx& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  m.react();
  const auto t1 = std::chrono::steady_clock::now();
  const ModuleId id = m.id();
  if (id < ctx.mod_reacts.size()) {
    ++ctx.mod_reacts[id];
    ctx.mod_seconds[id] += std::chrono::duration<double>(t1 - t0).count();
  }
}
}  // namespace detail

namespace {
[[nodiscard]] inline double seconds_between(
    std::chrono::steady_clock::time_point a,
    std::chrono::steady_clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

// ---------------------------------------------------------------------------
// ScheduleGraph
// ---------------------------------------------------------------------------

void ScheduleGraph::build(Netlist& netlist) {
  const auto& conns = netlist.connections();
  nodes_.resize(conns.size() * 2);
  succs_.resize(nodes_.size());
  preds_.resize(nodes_.size());

  for (const auto& c : conns) {
    const ChannelId f = forward_channel(c->id());
    const ChannelId b = backward_channel(c->id());
    nodes_[f] = Node{c.get(), ChannelKind::Forward, c->producer()};
    if (c->ack_mode() == AckMode::AutoAccept) {
      nodes_[b] = Node{c.get(), ChannelKind::Backward, nullptr};
    } else {
      nodes_[b] = Node{c.get(), ChannelKind::Backward, c->consumer()};
    }
  }

  // Kernel-driven acks depend exactly on their own forward channel.
  for (const auto& c : conns) {
    if (c->ack_mode() == AckMode::AutoAccept) {
      const ChannelId f = forward_channel(c->id());
      const ChannelId b = backward_channel(c->id());
      succs_[f].push_back(b);
      preds_[b].push_back(f);
    }
  }

  add_module_edges(netlist, succs_, preds_);

  // Deduplicate adjacency lists.
  auto dedupe = [](std::vector<std::vector<ChannelId>>& adj) {
    for (auto& lst : adj) {
      std::sort(lst.begin(), lst.end());
      lst.erase(std::unique(lst.begin(), lst.end()), lst.end());
    }
  };
  dedupe(succs_);
  dedupe(preds_);

  compute_sccs();
}

void ScheduleGraph::add_module_edges(
    Netlist& netlist, std::vector<std::vector<ChannelId>>& succs,
    std::vector<std::vector<ChannelId>>& preds) {
  auto add_edge = [&succs, &preds](ChannelId from, ChannelId to) {
    succs[from].push_back(to);
    preds[to].push_back(from);
  };

  // Channels of a port, split by direction of observation from the owning
  // module's perspective.
  auto port_channels = [](const Port& p, ChannelKind k) {
    std::vector<ChannelId> out;
    for (std::size_t i = 0; i < p.width(); ++i) {
      if (const Connection* c = p.connection(i)) {
        out.push_back(k == ChannelKind::Forward ? forward_channel(c->id())
                                                : backward_channel(c->id()));
      }
    }
    return out;
  };

  for (const auto& m : netlist.modules()) {
    Deps deps;
    m->declare_deps(deps);

    // Everything this module can observe (conservative source set).
    std::vector<ChannelId> all_observed;
    for (const auto& p : m->ports()) {
      const auto k = p->dir() == PortDir::In ? ChannelKind::Forward
                                             : ChannelKind::Backward;
      for (ChannelId ch : port_channels(*p, k)) all_observed.push_back(ch);
    }

    for (const auto& p : m->ports()) {
      // The signal group this module drives on port p: forward for outputs,
      // backward (ack) for managed inputs.
      std::vector<ChannelId> driven;
      if (p->dir() == PortDir::Out) {
        driven = port_channels(*p, ChannelKind::Forward);
      } else {
        for (std::size_t i = 0; i < p->width(); ++i) {
          const Connection* c = p->connection(i);
          if (c != nullptr && c->ack_mode() == AckMode::Managed) {
            driven.push_back(backward_channel(c->id()));
          }
        }
      }
      if (driven.empty()) continue;

      const auto it = deps.declared().find(p.get());
      std::vector<ChannelId> sources;
      if (it == deps.declared().end()) {
        sources = all_observed;
      } else {
        for (const SignalRef& ref : it->second) {
          for (ChannelId ch : port_channels(*ref.port, ref.kind)) {
            sources.push_back(ch);
          }
        }
      }
      for (ChannelId s : sources) {
        for (ChannelId d : driven) {
          if (s != d) add_edge(s, d);
        }
      }
    }
  }
}

void ScheduleGraph::compute_sccs() {
  // Iterative Tarjan.  SCCs are emitted sinks-first (reverse topological
  // order of the condensation); we reverse at the end.
  const std::size_t n = nodes_.size();
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(n, kUnvisited);
  std::vector<std::size_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<ChannelId> stack;
  std::size_t next_index = 0;

  struct Frame {
    ChannelId v;
    std::size_t child = 0;
  };
  std::vector<Frame> call_stack;

  for (ChannelId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back({root, 0});
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!call_stack.empty()) {
      Frame& fr = call_stack.back();
      const ChannelId v = fr.v;
      if (fr.child < succs_[v].size()) {
        const ChannelId w = succs_[v][fr.child++];
        if (index[w] == kUnvisited) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      } else {
        if (low[v] == index[v]) {
          std::vector<ChannelId> scc;
          while (true) {
            const ChannelId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == v) break;
          }
          std::sort(scc.begin(), scc.end());
          sccs_.push_back(std::move(scc));
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const ChannelId parent = call_stack.back().v;
          low[parent] = std::min(low[parent], low[v]);
        }
      }
    }
  }
  std::reverse(sccs_.begin(), sccs_.end());

  scc_of_.assign(n, 0);
  self_loop_.assign(sccs_.size(), 0);
  for (std::size_t i = 0; i < sccs_.size(); ++i) {
    for (ChannelId ch : sccs_[i]) {
      scc_of_[ch] = static_cast<std::uint32_t>(i);
    }
    if (sccs_[i].size() == 1) {
      const ChannelId v = sccs_[i][0];
      self_loop_[i] =
          std::binary_search(succs_[v].begin(), succs_[v].end(), v) ? 1 : 0;
    }
  }
}

std::size_t ScheduleGraph::largest_scc() const noexcept {
  std::size_t best = 0;
  for (const auto& s : sccs_) best = std::max(best, s.size());
  return best;
}

// ---------------------------------------------------------------------------
// QuiescenceGate
// ---------------------------------------------------------------------------

void QuiescenceGate::build(const ScheduleGraph& graph, const OptPlan& plan,
                           const std::vector<Module*>& modules) {
  if (!plan.gating) return;
  const auto& sccs = graph.sccs();
  const auto& nodes = graph.nodes();
  const auto& scc_of = graph.scc_of();
  const std::size_t n_scc = sccs.size();
  const std::size_t n_mod = modules.size();
  const std::size_t n_ch = nodes.size();

  // Candidate SCCs: every channel gate-free (a transfer gate is arbitrary
  // user code whose invocation pattern replay must not change), every
  // driver sleepable and not elided (kernel-driven AutoAccept acks are
  // fine), and not entirely constant (those are already pre-resolved).
  candidate_.assign(n_scc, 0);
  for (std::size_t i = 0; i < n_scc; ++i) {
    bool ok = true;
    bool all_const = true;
    // Structural cost model: a replay only pays when it saves module
    // handler work.  A driverless SCC (kernel-driven AutoAccept acks) is
    // replayed at the same cost the kernel drive has, and an SCC fully
    // covered by a fused chain is already resolved by one sweep that is
    // strictly cheaper than per-channel replays — gating either is pure
    // overhead (the passthrough-netlist -O2 regression).
    bool any_driver = false;
    bool all_chained = true;
    for (ChannelId ch : sccs[i]) {
      const ScheduleGraph::Node& n = nodes[ch];
      if (n.conn->has_transfer_gate()) {
        ok = false;
        break;
      }
      if (n.driver != nullptr) {
        any_driver = true;
        if (!plan.module_sleepable(n.driver->id()) ||
            plan.module_elided(n.driver->id())) {
          ok = false;
          break;
        }
      }
      if (ch >= plan.channel_const.size() || plan.channel_const[ch] == 0) {
        all_const = false;
      }
      if (ch >= plan.chain_of_channel.size() ||
          plan.chain_of_channel[ch] < 0) {
        all_chained = false;
      }
    }
    if (ok && !all_const && any_driver && !all_chained) candidate_[i] = 1;
  }

  // Gateable modules may skip cycle_start/end_of_cycle while asleep, so
  // every channel they drive must sit in a candidate SCC (otherwise that
  // channel's normal execution still needs the module's drives).
  std::vector<char> drives_ok(n_mod, 1);
  for (ChannelId ch = 0; ch < n_ch; ++ch) {
    const Module* d = nodes[ch].driver;
    if (d != nullptr && candidate_[scc_of[ch]] == 0) drives_ok[d->id()] = 0;
  }
  gateable_.assign(n_mod, 0);
  for (std::size_t id = 0; id < n_mod; ++id) {
    if (plan.module_sleepable(id) && !plan.module_elided(id) &&
        drives_ok[id] != 0) {
      gateable_[id] = 1;
    }
  }

  info_.assign(n_scc, SccInfo{});
  candidates_.clear();
  for (std::size_t i = 0; i < n_scc; ++i) {
    if (candidate_[i] == 0) continue;
    candidates_.push_back(static_cast<std::uint32_t>(i));
    SccInfo& si = info_[i];

    // Members forwards-first so replayed acks never precede their offers.
    std::vector<ChannelId> order = sccs[i];
    std::sort(order.begin(), order.end(), [&nodes](ChannelId a, ChannelId b) {
      const bool af = nodes[a].kind == ChannelKind::Forward;
      const bool bf = nodes[b].kind == ChannelKind::Forward;
      if (af != bf) return af;
      return a < b;
    });
    for (ChannelId ch : order) {
      si.members.push_back(Ch{nodes[ch].conn, nodes[ch].kind, ch});
    }

    std::vector<ChannelId> boundary;
    for (ChannelId ch : sccs[i]) {
      for (ChannelId p : graph.preds()[ch]) {
        if (scc_of[p] != i) boundary.push_back(p);
      }
    }
    std::sort(boundary.begin(), boundary.end());
    boundary.erase(std::unique(boundary.begin(), boundary.end()),
                   boundary.end());
    for (ChannelId p : boundary) {
      si.boundary.push_back(Ch{nodes[p].conn, nodes[p].kind, p});
    }

    for (ChannelId ch : sccs[i]) {
      Module* d = nodes[ch].driver;
      if (d != nullptr &&
          std::find(si.drivers.begin(), si.drivers.end(), d) ==
              si.drivers.end()) {
        si.drivers.push_back(d);
      }
    }
  }
  if (candidates_.empty()) return;

  enabled_ = true;
  sleep_ok_.assign(n_mod, 0);
  asleep_.assign(n_mod, 0);
  slept_.assign(n_scc, 0);
  cache_valid_.assign(n_scc, 0);
  attempt_at_.assign(n_scc, 0);
  backoff_.assign(n_scc, 0);
  cached_sig_.assign(n_ch, Tristate::Unknown);
  cached_val_.assign(n_ch, Value());
  eoc_stamp_.assign(n_mod, 0);
  scc_sleeps_.assign(n_scc, 0);
  scc_wakes_.assign(n_scc, 0);
  audit_scc_sleeps_.assign(n_scc, 0);

  // Modules whose can_sleep() we sample each cycle: drivers of candidate
  // SCCs (replay eligibility) plus gateable modules that drive nothing
  // (e.g. pure sinks, whose win is the skipped end_of_cycle).
  std::vector<char> seen(n_mod, 0);
  for (std::uint32_t s : candidates_) {
    for (Module* d : info_[s].drivers) seen[d->id()] = 1;
  }
  for (std::size_t id = 0; id < n_mod; ++id) {
    if (gateable_[id] != 0) seen[id] = 1;
  }
  tracked_.clear();
  for (Module* m : modules) {
    if (seen[m->id()] != 0) tracked_.push_back(m);
  }
  sccs_of_.assign(n_mod, {});
  for (std::uint32_t s : candidates_) {
    for (Module* d : info_[s].drivers) sccs_of_[d->id()].push_back(s);
  }
}

void QuiescenceGate::begin_cycle(Cycle cycle) {
  if (!enabled_ || suspended_) return;
  std::fill(slept_.begin(), slept_.end(), 0);
  for (Module* m : tracked_) {
    const ModuleId id = m->id();
    bool armed = gateable_[id] != 0 && sleep_ok_[id] != 0;
    if (armed) {
      for (const std::uint32_t s : sccs_of_[id]) {
        if (cycle < attempt_at_[s]) {
          armed = false;
          break;
        }
      }
    }
    asleep_[id] = armed ? 1 : 0;
  }
}

bool QuiescenceGate::boundary_unchanged(const SccInfo& si) const {
  for (const Ch& b : si.boundary) {
    Tristate cur = Tristate::Unknown;
    if (b.kind == ChannelKind::Forward) {
      if (b.conn->forward_known()) {
        cur = b.conn->enabled() ? Tristate::Asserted : Tristate::Negated;
      }
    } else {
      if (b.conn->ack_known()) {
        cur = b.conn->acked() ? Tristate::Asserted : Tristate::Negated;
      }
    }
    if (!known(cur) || cur != cached_sig_[b.id]) return false;
    if (b.kind == ChannelKind::Forward && cur == Tristate::Asserted &&
        !(b.conn->data() == cached_val_[b.id])) {
      return false;
    }
  }
  return true;
}

void QuiescenceGate::replay(const SccInfo& si) {
  // Drive each member channel from the cache through the normal resolution
  // paths so every hook fires — bit-identity on traces and counters follows
  // because the values are exactly what re-running the drivers would
  // produce (unchanged boundary + quiescent state).  Channels something
  // already resolved (constants, a late-woken driver's cycle_start) are
  // left alone; the cached value matches by the same argument.
  for (const Ch& c : si.members) {
    if (c.kind == ChannelKind::Forward) {
      if (c.conn->forward_known()) continue;
      if (cached_sig_[c.id] == Tristate::Asserted) {
        c.conn->send(cached_val_[c.id]);
      } else {
        c.conn->idle();
      }
    } else {
      if (c.conn->ack_known()) continue;
      if (cached_sig_[c.id] == Tristate::Asserted) {
        c.conn->ack();
      } else {
        c.conn->nack();
      }
    }
  }
}

bool QuiescenceGate::try_sleep_slow(std::uint32_t scc, Cycle cycle,
                                    std::vector<Module*>* woken) {
  // enabled_/suspended_/candidate_ were already tested by the inline wrapper.
  SccInfo& si = info_[scc];
  const auto wake_drivers = [&] {
    for (Module* d : si.drivers) {
      if (asleep_[d->id()] != 0) {
        asleep_[d->id()] = 0;
        d->cycle_start(cycle);  // deferred start now that it must run
        if (woken != nullptr) woken->push_back(d);
      }
    }
  };
  if (cycle < attempt_at_[scc]) {
    // Backed off after repeated failed attempts: skip the boundary compare
    // (and refresh skips the snapshot) until the window expires.  Not a
    // wake — begin_cycle never marks a backed-off SCC's drivers asleep, so
    // there is nothing to undo.
    return false;
  }
  bool ok = cache_valid_[scc] != 0;
  if (ok) {
    for (Module* d : si.drivers) {
      if (sleep_ok_[d->id()] == 0) {
        ok = false;
        break;
      }
    }
  }
  if (ok) ok = boundary_unchanged(si);
  if (!ok) {
    wake_drivers();
    ++scc_wakes_[scc];
    backoff_[scc] = std::min<Cycle>(
        backoff_[scc] == 0 ? 1 : backoff_[scc] * 2, kMaxBackoff);
    attempt_at_[scc] = cycle + backoff_[scc];
    cache_valid_[scc] = 0;  // goes stale while backed off
    return false;
  }
  replay(si);
  slept_[scc] = 1;
  ++scc_sleeps_[scc];
  backoff_[scc] = 0;
  return true;
}

void QuiescenceGate::mark_transfers(
    const std::vector<Connection*>& transferred, std::uint64_t token) {
  if (!enabled_ || suspended_) return;
  for (const Connection* c : transferred) {
    eoc_stamp_[c->producer()->id()] = token;
    eoc_stamp_[c->consumer()->id()] = token;
  }
}

bool QuiescenceGate::skip_end_of_cycle_slow(const Module& m,
                                            std::uint64_t token) {
  const ModuleId id = m.id();
  if (asleep_[id] == 0) return false;
  if (eoc_stamp_[id] == token) return false;  // adjacent transfer: commit
  ++eoc_skips_;
  return true;
}

void QuiescenceGate::retire_scc(std::uint32_t scc) {
  candidate_[scc] = 0;
  cache_valid_[scc] = 0;
  ++retired_sccs_;
  // The drivers may no longer sleep: a non-candidate SCC is resolved
  // normally, which needs their cycle_start drives.  Clearing gateable_ is
  // conservative for drivers shared with surviving SCCs; that sharing is
  // rare and correctness beats the lost skip.
  for (Module* d : info_[scc].drivers) {
    gateable_[d->id()] = 0;
    asleep_[d->id()] = 0;
  }
}

void QuiescenceGate::clear_asleep() noexcept {
  std::fill(asleep_.begin(), asleep_.end(), 0);
}

void QuiescenceGate::drop_caches() {
  std::fill(sleep_ok_.begin(), sleep_ok_.end(), 0);
  std::fill(cache_valid_.begin(), cache_valid_.end(), 0);
  std::fill(slept_.begin(), slept_.end(), 0);
  std::fill(attempt_at_.begin(), attempt_at_.end(), 0);
  std::fill(backoff_.begin(), backoff_.end(), 0);
  clear_asleep();
}

void QuiescenceGate::refresh(Cycle cycle) {
  if (!enabled_) return;
  if (calib_ != Calib::Done) {
    const auto now = std::chrono::steady_clock::now();
    if (!win_started_) {
      win_started_ = true;
      win_start_ = now;
      win_end_ = cycle + kCalibPeriod;
    } else if (cycle >= win_end_) {
      const double secs = seconds_between(win_start_, now);
      if (calib_ == Calib::GatedWindow) {
        gated_seconds_ = secs;
        // SCCs whose measured sleep ratio over the gated sample fell below
        // 1/2 can never recoup their boundary-compare + replay + snapshot
        // overhead; drop them before timing the ungated sample.
        std::size_t remaining = 0;
        for (std::uint32_t s : candidates_) {
          if (candidate_[s] == 0) continue;
          if (scc_sleeps_[s] * 2 < kCalibPeriod) {
            retire_scc(s);
          } else {
            ++remaining;
          }
        }
        if (remaining == 0) {
          enabled_ = false;
          clear_asleep();
          return;
        }
        calib_ = Calib::UngatedWindow;
        suspended_ = true;
        clear_asleep();
        win_start_ = now;
        win_end_ = cycle + kCalibPeriod;
        return;
      }
      // Ungated sample finished: keep the gate only when the gated window
      // was measurably *faster* (at least a 2% win).  A marginal gate is
      // dropped: its replay/snapshot machinery keeps costing every cycle
      // for the rest of the run, while the calibration sample is short and
      // noisy — the asymmetric risk says bail unless gating provably pays.
      suspended_ = false;
      calib_ = Calib::Done;
      if (gated_seconds_ > secs * 0.98) {
        enabled_ = false;
        clear_asleep();
        return;
      }
      // The suspended window left every cache and can_sleep sample stale;
      // relearn from scratch and restart the audit clock.
      drop_caches();
      std::uint64_t total = 0;
      for (std::uint32_t s : candidates_) {
        if (candidate_[s] == 0) continue;
        total += scc_sleeps_[s];
        audit_scc_sleeps_[s] = scc_sleeps_[s];
      }
      sleeps_at_audit_ = total;
      next_audit_ = cycle + kAuditPeriod;
      zero_windows_ = 0;
    }
    if (suspended_) return;
  }
  if (calib_ == Calib::Done && cycle >= next_audit_) {
    std::uint64_t total = 0;
    std::size_t remaining = 0;
    for (std::uint32_t s : candidates_) {
      if (candidate_[s] == 0) continue;
      total += scc_sleeps_[s];
      // Ongoing per-SCC sleep-ratio guard: workloads change phase, and an
      // SCC that stopped sleeping at least half the time is now a net
      // loss.  Retirement is permanent (never-slower beats sometimes-
      // faster for an optimization that must not regress).
      if ((scc_sleeps_[s] - audit_scc_sleeps_[s]) * 2 < kAuditPeriod) {
        retire_scc(s);
      } else {
        audit_scc_sleeps_[s] = scc_sleeps_[s];
        ++remaining;
      }
    }
    zero_windows_ = total == sleeps_at_audit_ ? zero_windows_ + 1 : 0;
    sleeps_at_audit_ = total;
    next_audit_ = cycle + kAuditPeriod;
    if (zero_windows_ >= 2 || remaining == 0) {
      // Nothing here ever sleeps — retire.  Counters remain reported (they
      // read candidates_, not enabled_) and every asleep/candidate query
      // now short-circuits on enabled_.
      enabled_ = false;
      clear_asleep();
      return;
    }
  }
  for (std::uint32_t s : candidates_) {
    if (candidate_[s] == 0) continue;  // retired by the cost-model guard
    if (slept_[s] != 0) continue;  // cache is already this cycle's values
    // Backed-off SCCs re-snapshot on the cycle before their next attempt,
    // restoring the invariant that a consulted cache is exactly one cycle
    // old (the can_sleep() contract is a single-step promise).
    if (cycle + 1 < attempt_at_[s]) continue;
    SccInfo& si = info_[s];
    const auto snap = [this](const Ch& c) {
      if (c.kind == ChannelKind::Forward) {
        const bool en = c.conn->enabled();
        cached_sig_[c.id] = en ? Tristate::Asserted : Tristate::Negated;
        cached_val_[c.id] = en ? c.conn->data() : Value();
      } else {
        cached_sig_[c.id] =
            c.conn->acked() ? Tristate::Asserted : Tristate::Negated;
      }
    };
    for (const Ch& c : si.members) snap(c);
    for (const Ch& c : si.boundary) snap(c);
    cache_valid_[s] = 1;
  }
  for (Module* m : tracked_) {
    sleep_ok_[m->id()] = m->can_sleep() ? 1 : 0;
  }
}

void QuiescenceGate::invalidate() {
  if (!enabled_) return;
  drop_caches();
}

void QuiescenceGate::visit_counters(const CounterVisitor& visit) const {
  visit("opt.gated_sccs", candidates_.size());
  std::uint64_t sleeps = 0;
  std::uint64_t wakes = 0;
  std::uint64_t replayed = 0;
  for (std::uint32_t s : candidates_) {
    sleeps += scc_sleeps_[s];
    wakes += scc_wakes_[s];
    replayed += scc_sleeps_[s] * info_[s].members.size();
  }
  visit("opt.scc_sleeps", sleeps);
  visit("opt.scc_wakes", wakes);
  visit("opt.replayed_resolutions", replayed);
  visit("opt.eoc_skips", eoc_skips_);
  visit("opt.retired_sccs", retired_sccs_);
}

// ---------------------------------------------------------------------------
// SchedulerBase
// ---------------------------------------------------------------------------

SchedulerBase::SchedulerBase(Netlist& netlist) : netlist_(netlist) {
  if (!netlist.finalized()) {
    throw liberty::ElaborationError(
        "scheduler requires a finalized netlist");
  }
  module_tape_.reserve(netlist.module_count());
  for (const auto& m : netlist.modules()) module_tape_.push_back(m.get());
  conn_tape_.reserve(netlist.connection_count());
  for (const auto& c : netlist.connections()) conn_tape_.push_back(c.get());
  plan_ = netlist.opt_plan();
  if (plan_ != nullptr) chain_state_.resize(plan_->chains.size());
  quarantined_.assign(netlist.module_count(), 0);
  for (const Module* m : module_tape_) {
    if (netlist.is_quarantined(m->id())) {
      quarantined_[m->id()] = 1;
      any_quarantined_ = true;
    }
  }
  install_hooks(this);
}

SchedulerBase::~SchedulerBase() {
  install_hooks(nullptr);
  // Fault hooks are per-scheduler installations; never leave a dangling
  // injector pointer behind for the next scheduler built on this netlist.
  if (fault_ != nullptr) set_fault_hook(nullptr);
}

void SchedulerBase::set_fault_hook(FaultHook* hook) {
  fault_ = hook;
  for (Connection* c : conn_tape_) c->set_fault_hook(hook);
}

void SchedulerBase::recover_after_abort() noexcept {
  for (Connection* c : conn_tape_) c->reset_channels();
  // A cycle aborted mid-resolve leaves fused-chain stamps holding the
  // aborted cycle's token (cycles_run_ was never bumped), which would
  // silently skip the sweeps on retry; zero is never a valid token.
  for (ChainState& st : chain_state_) {
    st.fwd_stamp = 0;
    st.bwd_stamp = 0;
  }
  gate_.invalidate();
  ctx_.transferred.clear();
}

void SchedulerBase::install_hooks(ResolveHooks* h) {
  for (const auto& c : netlist_.connections()) c->set_hooks(h);
}

std::uint64_t SchedulerBase::total_generation() const noexcept {
  std::uint64_t sum = 0;
  for (const Connection* c : conn_tape_) sum += c->generation();
  return sum;
}

void SchedulerBase::default_forward(Connection& c) {
  if (c.forward_known()) return;
  c.idle();
  c.note_defaulted();
  ++ctx_.defaults;
}

void SchedulerBase::default_backward(Connection& c) {
  if (c.ack_known()) return;
  if (known(c.intent_)) return;
  c.nack();
  c.note_defaulted();
  ++ctx_.defaults;
}

void SchedulerBase::apply_auto_accept(Connection& c) {
  if (c.ack_known() || known(c.intent_)) {
    return;
  }
  if (c.enabled()) {
    c.ack();
  } else {
    c.nack();
  }
}

void SchedulerBase::apply_consts() {
  // Forwards come before backwards in the plan so that an AutoAccept ack
  // constant always finds its offer already known.  Channels a module
  // already resolved (none at cycle top, but defensively) are left alone;
  // the module's own later drives of these values are idempotent no-ops.
  for (const OptPlan::ConstChannel& cc : plan_->consts) {
    Connection& c = *cc.conn;
    if (cc.kind == ChannelKind::Forward) {
      if (c.forward_known()) continue;
      if (cc.asserted) {
        c.send(cc.value);
      } else {
        c.idle();
      }
    } else {
      if (c.ack_known()) continue;
      if (cc.asserted) {
        c.ack();
      } else {
        c.nack();
      }
    }
    ++opt_pre_resolved_;
  }
}

void SchedulerBase::run_chain(std::size_t idx) {
  const OptPlan::Chain& ch = plan_->chains[idx];
  ChainState& st = chain_state_[idx];
  const std::uint64_t token = cycles_run_ + 1;
  // Under fault injection a drive may land rewritten, so the sweep must
  // propagate what actually resolved on each link (what an unfused member
  // would observe), not its local pre-mapping copy.
  const bool faulted = fault_ != nullptr;
  if (st.fwd_stamp != token && ch.links.front()->forward_known()) {
    // One pass down the chain resolves every member's output.  A link that
    // is already resolved (constant, quiescence replay, or a member react
    // from the cleanup endgame) is adopted as-is — its value was produced
    // by the member's transform already, preserving exactly-once transform
    // invocation.
    bool en = ch.links.front()->enabled();
    Value v = en ? ch.links.front()->data() : Value();
    for (std::size_t i = 0; i < ch.members.size(); ++i) {
      Connection* out = ch.links[i + 1];
      if (out->forward_known()) {
        en = out->enabled();
        if (en) v = out->data();
        continue;
      }
      if (en) {
        if (ch.transforms[i]) v = ch.transforms[i](v);
        out->send(v);
      } else {
        out->idle();
      }
      if (faulted) {
        en = out->enabled();
        v = en ? out->data() : Value();
      }
    }
    st.fwd_stamp = token;
    ++st.fwd_sweeps;
  }
  if (st.bwd_stamp != token && ch.links.back()->ack_known()) {
    // One pass back up propagates the tail ack to every member input (all
    // interior links are Managed by construction of the fusion pass).
    bool a = ch.links.back()->acked();
    for (std::size_t i = ch.members.size(); i-- > 0;) {
      Connection* in = ch.links[i];
      if (in->ack_known()) {
        a = in->acked();
        continue;
      }
      if (a) {
        in->ack();
      } else {
        in->nack();
      }
      if (faulted) a = in->acked();
    }
    st.bwd_stamp = token;
    ++st.bwd_sweeps;
  }
}

void SchedulerBase::visit_counters(const CounterVisitor& visit) const {
  visit("cycles_run", cycles_run_);
  visit("react_calls", react_calls_);
  visit("defaults_applied", defaults_);
  visit("resolutions", total_resolutions_);
  visit("transfers_committed", transfers_committed_);
  if (plan_ != nullptr) {
    visit("opt.pre_resolved", opt_pre_resolved_);
    std::uint64_t elided = 0;
    for (const char e : plan_->elided) elided += (e != 0) ? 1 : 0;
    visit("opt.elided_modules", elided);
    visit("opt.fused_chains", plan_->chains.size());
    std::uint64_t fwd_sweeps = 0;
    std::uint64_t bwd_sweeps = 0;
    for (const ChainState& st : chain_state_) {
      fwd_sweeps += st.fwd_sweeps;
      bwd_sweeps += st.bwd_sweeps;
    }
    visit("opt.fwd_sweeps", fwd_sweeps);
    visit("opt.bwd_sweeps", bwd_sweeps);
    gate_.visit_counters(visit);
  }
}

bool checked_kernel_enabled() noexcept {
#if defined(LIBERTY_CHECKED_KERNEL)
  return true;
#else
  return false;
#endif
}

void SchedulerBase::verify_resolved(Cycle cycle) const {
#if defined(LIBERTY_CHECKED_KERNEL)
  constexpr bool kChecked = true;
#else
  constexpr bool kChecked = false;
#endif
  // Cheap always-on aggregate check: every channel resolves exactly once per
  // cycle, so the per-cycle resolution count must be 2x the connection
  // count.  The full per-connection audit (which also produces a precise
  // diagnostic) runs only in checked builds or when the aggregate is off
  // (e.g. a channel was driven outside run_cycle).
  const std::uint64_t expected = 2 * conn_tape_.size();
  if (ctx_.resolutions == expected && !kChecked) return;
  for (const Connection* c : conn_tape_) {
    if (!c->fully_resolved()) {
      throw liberty::SimulationError("internal: unresolved connection " +
                                     c->describe() + " at end of cycle " +
                                     std::to_string(cycle));
    }
  }
}

void SchedulerBase::run_cycle(Cycle cycle) {
  cycle_ = cycle;
  // Fault seam, before any phase: channels are clean and no handler has
  // run, so a throwing hook (injected handler fault) aborts at a
  // scheduler-invariant, recovery-friendly point.
  if (fault_ != nullptr) fault_->begin_cycle(cycle);
  ctx_.resolutions = 0;
  ctx_.reacts = 0;
  ctx_.defaults = 0;
  ctx_.transferred.clear();

  // Observability: with a probe installed the cycle is timed phase by
  // phase and react() calls are attributed per module; with none, the
  // whole block below is a single null check per phase boundary.
  KernelProbe* const probe = probe_;
  using clock = std::chrono::steady_clock;
  clock::time_point mark;
  if (probe != nullptr) {
    probe->on_cycle_begin(cycle);
    ctx_.size_profile(module_tape_.size());
    ctx_.timing = true;
    mark = clock::now();
  }
  const auto end_phase = [&](SchedPhase p) {
    const clock::time_point now = clock::now();
    probe->on_phase(p, cycle, seconds_between(mark, now));
    mark = now;
  };

  const bool opt = plan_ != nullptr;
  if (opt) {
    gate_.begin_cycle(cycle);
    apply_consts();
  }

  start_phase();
  if (probe != nullptr) end_phase(SchedPhase::CycleStart);

  resolve_cycle();
  react_calls_ += ctx_.reacts;
  defaults_ += ctx_.defaults;

  verify_resolved(cycle);
  // Invariant window: everything resolved, nothing committed.  A probe
  // (resil::Watchdog) that throws here aborts the cycle with module state
  // still untouched by it — the rollback-soundness anchor.
  if (probe != nullptr) {
    probe->on_cycle_resolved(cycle);
    end_phase(SchedPhase::Resolve);
  }

  // Transfers force end_of_cycle on their endpoint modules even when
  // asleep: a transfer commits state wherever it lands.
  const std::uint64_t eoc_token = cycles_run_ + 1;
  if (opt) gate_.mark_transfers(ctx_.transferred, eoc_token);
  update_phase(eoc_token);
  if (probe != nullptr) end_phase(SchedPhase::Update);

  // Commit transfers from the dirty list in canonical (connection id) order
  // so observer streams are identical across schedulers.
  std::vector<Connection*>& dirty = ctx_.transferred;
  std::sort(dirty.begin(), dirty.end(),
            [](const Connection* a, const Connection* b) {
              return a->id() < b->id();
            });
#if defined(LIBERTY_CHECKED_KERNEL)
  // Each transfer is recorded exactly once (see note_resolved); a repeat
  // would commit it twice.
  const auto twice = std::adjacent_find(dirty.begin(), dirty.end());
  if (twice != dirty.end()) {
    throw liberty::SimulationError(
        "internal: transfer recorded twice on connection " +
        (*twice)->describe() + " at cycle " + std::to_string(cycle));
  }
#endif
  for (Connection* c : dirty) {
    c->note_transfer();
    for (const auto& obs : observers_) obs(*c, cycle);
  }

  // Snapshot this cycle's channel values and module quiescence for next
  // cycle's gating decisions, before the channels are wiped.
  if (opt) gate_.refresh(cycle);

  for (Connection* c : conn_tape_) c->reset_channels();

  total_resolutions_ += ctx_.resolutions;
  transfers_committed_ += dirty.size();
  ++cycles_run_;

  if (probe != nullptr) {
    end_phase(SchedPhase::Commit);
    // Hand this cycle's per-module react attribution to the probe.
    const std::size_t n =
        std::min(ctx_.mod_reacts.size(), module_tape_.size());
    if (n != 0) {
      probe->on_module_batch(ctx_.mod_reacts.data(), ctx_.mod_seconds.data(),
                             n);
      std::fill(ctx_.mod_reacts.begin(), ctx_.mod_reacts.begin() + n, 0);
      std::fill(ctx_.mod_seconds.begin(), ctx_.mod_seconds.begin() + n, 0.0);
    }
    ctx_.timing = false;
    probe->on_cycle_end(cycle);
  }
}

void SchedulerBase::start_phase() {
  const bool opt = plan_ != nullptr;
  const Cycle cycle = cycle_;
  for (Module* m : module_tape_) {
    m->now_ = cycle;
    if (any_quarantined_ && quarantined_[m->id()] != 0) continue;
    if (opt && (plan_->elided[m->id()] != 0 ||
                gate_.module_asleep(m->id()))) {
      continue;  // elided: dead logic; asleep: deferred (or replayed) start
    }
    m->cycle_start(cycle);
  }
}

void SchedulerBase::update_phase(std::uint64_t eoc_token) {
  const bool opt = plan_ != nullptr;
  for (Module* m : module_tape_) {
    if (any_quarantined_ && quarantined_[m->id()] != 0) continue;
    if (opt && (plan_->elided[m->id()] != 0 ||
                gate_.skip_end_of_cycle(*m, eoc_token))) {
      continue;
    }
    m->end_of_cycle();
  }
}

// ---------------------------------------------------------------------------
// DynamicScheduler
// ---------------------------------------------------------------------------

DynamicScheduler::DynamicScheduler(Netlist& netlist) : SchedulerBase(netlist) {
  const std::size_t n = netlist.module_count();
  std::size_t cap = 2;
  while (cap < n + 1) cap <<= 1;
  ring_.resize(cap);
  mask_ = cap - 1;
  queued_stamp_.assign(n, 0);
  if (plan_ != nullptr && plan_->gating) {
    // The dynamic scheduler has no schedule graph of its own; build one
    // just to derive the gate's candidate SCCs and boundary sets (the
    // graph itself is not retained).
    ScheduleGraph graph;
    graph.build(netlist);
    gate_.build(graph, *plan_, module_tape_);
  }
}

void DynamicScheduler::enqueue(Module* m) {
  if (m == nullptr) return;
  const ModuleId id = m->id();
  if (id >= queued_stamp_.size()) {
    throw liberty::SimulationError(
        "module '" + m->name() + "' (id " + std::to_string(id) +
        ") is unknown to this scheduler; the netlist grew after scheduler "
        "construction — rebuild the simulator after adding modules");
  }
  if (any_quarantined_ && quarantined_[id] != 0) return;
  if (plan_ != nullptr &&
      (plan_->elided[id] != 0 || gate_.module_asleep(id))) {
    return;  // never activate dead or sleeping modules
  }
  if (queued_stamp_[id] == epoch_) return;
  queued_stamp_[id] = epoch_;
  ring_[tail_] = m;
  tail_ = (tail_ + 1) & mask_;
  ++pushes_;
  const std::size_t occupancy = (tail_ - head_) & mask_;
  if (occupancy > high_water_) high_water_ = occupancy;
}

void DynamicScheduler::visit_counters(const CounterVisitor& visit) const {
  SchedulerBase::visit_counters(visit);
  visit("worklist_pushes", pushes_);
  visit("worklist_high_water", high_water_);
  visit("worklist_capacity", ring_.size());
}

void DynamicScheduler::drain() {
  // The cap is scaled by module count: a healthy cycle legitimately pops
  // each module a small constant number of times, so "passes" here means
  // worklist pops per module.  On overflow, report the channels still
  // unresolved — those are what the churn is circling.
  const std::uint64_t pop_limit =
      iter_cap_ == 0 ? 0 : iter_cap_ * (module_tape_.size() + 1);
  while (head_ != tail_) {
    if (pop_limit != 0 && ++cycle_pops_ > pop_limit) {
      std::string chain;
      std::size_t listed = 0;
      for (const Connection* c : conn_tape_) {
        if (c->fully_resolved()) continue;
        if (listed != 0) chain += " -> ";
        if (++listed > 6) {
          chain += "...";
          break;
        }
        chain += c->describe();
      }
      if (chain.empty()) chain = "(worklist churn, all channels resolved)";
      throw liberty::SimulationError(
          "combinational loop via " + chain +
          " did not converge within the fixed-point iteration cap (" +
          std::to_string(iter_cap_) + " passes) at cycle " +
          std::to_string(cycle_) +
          "; raise the cap (--max-iters) or break the loop with a "
          "sequential module");
    }
    Module* m = ring_[head_];
    head_ = (head_ + 1) & mask_;
    queued_stamp_[m->id()] = epoch_ - 1;
    if (plan_ != nullptr) {
      const std::int32_t chain = plan_->chain_of_module[m->id()];
      if (chain >= 0) {
        // Fused pass-through chain: one sweep resolves the whole chain in
        // place of this member's react.
        run_chain(static_cast<std::size_t>(chain));
        continue;
      }
    }
    call_react(*m);
  }
}

void DynamicScheduler::on_forward_resolved(Connection& c) {
  note_resolved(c);
  // Default control: the consumer accepts everything offered.
  if (c.ack_mode() == AckMode::AutoAccept) apply_auto_accept(c);
  enqueue(c.consumer());
}

void DynamicScheduler::on_backward_resolved(Connection& c) {
  note_resolved(c);
  enqueue(c.producer());
}

void DynamicScheduler::resolve_cycle() {
  cycle_pops_ = 0;
  // Quiescence-gating decision phase, in topological order.  This runs
  // after the cycle_start loop, so state-only drives of awake producers
  // (e.g. an exhausted Source idling) are already resolved and upstream
  // boundaries are decidable; boundaries that resolve only through later
  // reacts conservatively wake their SCCs.  Replays fire the resolution
  // hooks, which enqueue awake downstream consumers as usual.
  if (gate_.enabled()) {
    woken_scratch_.clear();
    for (const std::uint32_t s : gate_.candidates()) {
      gate_.try_sleep(s, cycle_, &woken_scratch_);
    }
    for (Module* m : woken_scratch_) enqueue(m);
  }
  // Every module reacts at least once per cycle so that purely combinational
  // modules run even when none of their inputs produced an event (e.g. all
  // inputs unconnected, reading port defaults).
  for (Module* m : module_tape_) enqueue(m);
  drain();
  // Quiescent: no module will drive anything further without new
  // information.  Default undriven forward channels one at a time (each may
  // unblock reactions downstream), then undriven backward channels.
  for (Connection* c : conn_tape_) {
    if (!c->forward_known()) {
      default_forward(*c);
      drain();
    }
  }
  for (Connection* c : conn_tape_) {
    if (!c->ack_known()) {
      default_backward(*c);
      drain();
    }
  }
  // The ring is empty; bumping the epoch un-queues every mark in O(1) so
  // the next cycle (whose cycle_start drives enqueue reactions) starts
  // clean.
  ++epoch_;
}

// ---------------------------------------------------------------------------
// AnalyzedScheduler
// ---------------------------------------------------------------------------

std::uint64_t AnalyzedScheduler::fixedpoint_passes() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : scc_iters_) sum += n;
  return sum;
}

void AnalyzedScheduler::visit_counters(const CounterVisitor& visit) const {
  SchedulerBase::visit_counters(visit);
  visit("scc_count", scc_count());
  visit("largest_scc", largest_scc());
  visit("fixedpoint_passes", fixedpoint_passes());
  std::uint64_t busiest = 0;
  for (const std::uint64_t n : scc_iters_) busiest = std::max(busiest, n);
  visit("fixedpoint_passes_busiest_scc", busiest);
  visit("cleanup_activations", cleanup_activations_);
}

AnalyzedScheduler::AnalyzedScheduler(Netlist& netlist)
    : SchedulerBase(netlist) {
  graph_.build(netlist);

  // Precompute per-SCC execution state so run_scc does no per-cycle driver
  // discovery, sorting, or allocation.
  const auto& sccs = graph_.sccs();
  scc_drivers_.resize(sccs.size());
  scc_order_.resize(sccs.size());
  scc_iters_.assign(sccs.size(), 0);
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    if (sccs[i].size() == 1 && !graph_.self_loop(i)) continue;

    // Distinct driver modules, in order of first appearance.  Elided
    // modules never react (their driven channels are all constant).
    for (ChannelId ch : sccs[i]) {
      Module* d = graph_.nodes()[ch].driver;
      if (d != nullptr && !module_elided(d->id()) &&
          std::find(scc_drivers_[i].begin(), scc_drivers_[i].end(), d) ==
              scc_drivers_[i].end()) {
        scc_drivers_[i].push_back(d);
      }
    }

    // Channels are defaulted forwards-first so that a gated or auto ack
    // never has to wait on an unknown offer within the group.
    scc_order_[i] = sccs[i];
    std::sort(scc_order_[i].begin(), scc_order_[i].end(),
              [this](ChannelId a, ChannelId b) {
                const bool af = graph_.nodes()[a].kind == ChannelKind::Forward;
                const bool bf = graph_.nodes()[b].kind == ChannelKind::Forward;
                if (af != bf) return af;
                return a < b;
              });
  }

  if (plan_ != nullptr && plan_->gating) {
    gate_.build(graph_, *plan_, module_tape_);
  }
}

bool AnalyzedScheduler::node_resolved(ChannelId id) const {
  const ScheduleGraph::Node& n = graph_.nodes()[id];
  return n.kind == ChannelKind::Forward ? n.conn->forward_known()
                                        : n.conn->ack_known();
}

void AnalyzedScheduler::execute_node(ChannelId id) {
  const ScheduleGraph::Node& n = graph_.nodes()[id];
  Connection& c = *n.conn;
  if (plan_ != nullptr) {
    if (plan_->channel_const[id] != 0) return;  // pre-resolved at cycle top
    const std::int32_t chain = plan_->chain_of_channel[id];
    if (chain >= 0) {
      // Fused chain: the sweep resolves this channel (and the rest of the
      // chain's channels in this direction) in one pass.  Topological
      // order guarantees the chain's upstream end is known by now, so the
      // fallback below is defensive only.
      run_chain(static_cast<std::size_t>(chain));
      if (node_resolved(id)) return;
    }
  }
  if (n.kind == ChannelKind::Forward) {
    if (c.forward_known()) return;
    call_react(*n.driver);
    if (!c.forward_known()) default_forward(c);
  } else {
    if (c.ack_known()) return;
    if (n.driver == nullptr) {
      // AutoAccept: forward is topologically ordered before us, so the
      // offer is known (or was defaulted) by now.
      if (c.forward_known()) apply_auto_accept(c);
    } else {
      call_react(*n.driver);
      if (!c.ack_known()) default_backward(c);
    }
  }
}

void AnalyzedScheduler::run_scc(std::size_t scc_index) {
  const std::vector<ChannelId>& group = graph_.sccs()[scc_index];
  const std::vector<Module*>& drivers = scc_drivers_[scc_index];
  const std::vector<ChannelId>& order = scc_order_[scc_index];
  // Progress is detected through the resolution counter (every resolution
  // is observed by the hooks), replacing the old O(group) generation
  // polling per pass with an O(1) check.
  const std::uint64_t* resolutions = &ctx_.resolutions;
  std::uint64_t passes = 0;

  while (true) {
    // React to quiescence within the group.
    while (true) {
      ++scc_iters_[scc_index];
      if (iter_cap_ != 0 && ++passes > iter_cap_) {
        throw_nonconvergence(scc_index, passes);
      }
      const std::uint64_t before = *resolutions;
      for (Module* d : drivers) call_react(*d);
      for (ChannelId ch : group) {
        const ScheduleGraph::Node& n = graph_.nodes()[ch];
        if (n.kind == ChannelKind::Backward && n.driver == nullptr &&
            n.conn->forward_known()) {
          apply_auto_accept(*n.conn);
        }
      }
      if (*resolutions == before) break;
    }
    // Default the first still-unresolved channel and go around again.
    ChannelId target = 0;
    bool found = false;
    for (ChannelId ch : order) {
      if (!node_resolved(ch)) {
        target = ch;
        found = true;
        break;
      }
    }
    if (!found) return;
    const ScheduleGraph::Node& n = graph_.nodes()[target];
    if (n.kind == ChannelKind::Forward) {
      default_forward(*n.conn);
    } else if (n.driver == nullptr) {
      apply_auto_accept(*n.conn);
    } else {
      default_backward(*n.conn);
    }
  }
}

void AnalyzedScheduler::throw_nonconvergence(std::size_t scc_index,
                                             std::uint64_t passes) const {
  // Attribute the oscillation: the SCC's member connections are the
  // combinational loop (one entry per connection — forwards only, so the
  // chain reads as the data path).
  std::string chain;
  std::size_t listed = 0;
  for (ChannelId ch : graph_.sccs()[scc_index]) {
    const ScheduleGraph::Node& n = graph_.nodes()[ch];
    if (n.kind != ChannelKind::Forward) continue;
    if (listed != 0) chain += " -> ";
    if (++listed > 6) {
      chain += "...";
      break;
    }
    chain += n.conn->describe();
  }
  if (chain.empty() && !graph_.sccs()[scc_index].empty()) {
    chain = graph_.nodes()[graph_.sccs()[scc_index][0]].conn->describe();
  }
  throw liberty::SimulationError(
      "combinational loop via " + chain +
      " did not converge within the fixed-point iteration cap (" +
      std::to_string(passes - 1) + " passes) at cycle " +
      std::to_string(cycle_) +
      "; raise the cap (--max-iters) or break the loop with a sequential "
      "module");
}

void AnalyzedScheduler::cleanup_unresolved() {
  // Rare endgame for channels the schedule could not attribute (e.g. a
  // gated ack whose intent was pending on a forward in a later SCC).
  // Mirrors the dynamic scheduler's quiesce-then-default loop globally.
  const std::size_t n_nodes = graph_.nodes().size();
  const std::uint64_t* resolutions = &ctx_.resolutions;
  const std::uint64_t activation_limit =
      iter_cap_ == 0 ? 0 : iter_cap_ * (n_nodes + 1);
  std::uint64_t activations = 0;
  while (true) {
    bool any = false;
    ChannelId first_unresolved = 0;
    for (ChannelId ch = 0; ch < n_nodes; ++ch) {
      if (!node_resolved(ch)) {
        any = true;
        first_unresolved = ch;
        break;
      }
    }
    if (!any) return;
    if (activation_limit != 0 && ++activations > activation_limit) {
      throw_nonconvergence(graph_.scc_of()[first_unresolved], activations);
    }
    ++cleanup_activations_;
    while (true) {
      const std::uint64_t before = *resolutions;
      for (Module* m : module_tape_) call_react(*m);
      for (Connection* c : conn_tape_) {
        if (c->ack_mode() == AckMode::AutoAccept && c->forward_known()) {
          apply_auto_accept(*c);
        }
      }
      if (*resolutions == before) break;
    }
    for (ChannelId ch = 0; ch < n_nodes; ++ch) {
      if (!node_resolved(ch)) {
        execute_node(ch);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// StaticScheduler
// ---------------------------------------------------------------------------

StaticScheduler::StaticScheduler(Netlist& netlist)
    : AnalyzedScheduler(netlist) {}

void StaticScheduler::resolve_cycle() {
  const auto& sccs = graph_.sccs();
  const bool gating = gate_.enabled();
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    if (gating &&
        gate_.try_sleep(static_cast<std::uint32_t>(i), cycle_)) {
      continue;  // replayed from cache
    }
    if (sccs[i].size() == 1 && !graph_.self_loop(i)) {
      execute_node(sccs[i][0]);
    } else {
      run_scc(i);
    }
  }
  cleanup_unresolved();
}

}  // namespace liberty::core
