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
  for (const auto& c : netlist.connections()) {
    // The end-of-cycle sweep commits in tape order, which is connection-id
    // order only because Netlist::connect numbers connections densely.
    if (c->id() != conn_tape_.size()) {
      throw liberty::ElaborationError(
          "internal: connection " + c->describe() + " has id " +
          std::to_string(c->id()) + " at tape position " +
          std::to_string(conn_tape_.size()));
    }
    conn_tape_.push_back(c.get());
  }
  plan_ = netlist.opt_plan();
  if (plan_ != nullptr) chain_state_.resize(plan_->chains.size());
  quarantined_.assign(netlist.module_count(), 0);
  for (Module* m : module_tape_) {
    if (netlist.is_quarantined(m->id())) {
      quarantined_[m->id()] = 1;
      any_quarantined_ = true;
    } else if (!module_elided(m->id())) {
      live_modules_.push_back(m);
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
  ++ctx_.defaults;
}

void SchedulerBase::default_backward(Connection& c) {
  if (c.ack_known()) return;
  if (known(c.intent_)) return;
  c.nack();
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
    // is already resolved (constant, or a member react from the cleanup
    // endgame) is adopted as-is — its value was produced by the member's
    // transform already, preserving exactly-once transform invocation.
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
  }
}

bool checked_kernel_enabled() noexcept { return true; }

void SchedulerBase::verify_resolved(Cycle cycle) const {
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

  if (plan_ != nullptr) apply_consts();

  netlist_.cycle_ = cycle;  // what Module::now() reads this cycle
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

  update_phase();
  if (probe != nullptr) end_phase(SchedPhase::Update);

  // Commit in tape (= connection id) order so observer streams are
  // identical across schedulers, clearing each channel for the next cycle
  // once its observers have seen it.
  std::uint64_t committed = 0;
  for (Connection* c : conn_tape_) {
    if (c->transferred()) {
      c->note_transfer();
      for (const auto& obs : observers_) obs(*c, cycle);
      ++committed;
    }
    c->reset_channels();
  }

  total_resolutions_ += ctx_.resolutions;
  transfers_committed_ += committed;
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
  const Cycle cycle = cycle_;
  for (Module* m : live_modules_) m->cycle_start(cycle);
}

void SchedulerBase::update_phase() {
  for (Module* m : live_modules_) m->end_of_cycle();
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
  if (plan_ != nullptr && plan_->elided[id] != 0) {
    return;  // never activate dead modules
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
  note_resolved();
  // Default control: the consumer accepts everything offered.
  if (c.ack_mode() == AckMode::AutoAccept) apply_auto_accept(c);
  enqueue(c.consumer());
}

void DynamicScheduler::on_backward_resolved(Connection& c) {
  note_resolved();
  enqueue(c.producer());
}

void DynamicScheduler::resolve_cycle() {
  cycle_pops_ = 0;
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

  const auto& sccs = graph_.sccs();

  // Flatten the SCC sequence into the walk, and precompute per-SCC
  // execution state so run_scc does no per-cycle driver discovery,
  // sorting, or allocation.
  walk_.reserve(sccs.size());
  scc_drivers_.resize(sccs.size());
  scc_order_.resize(sccs.size());
  scc_iters_.assign(sccs.size(), 0);
  hook_free_ = true;
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    if (sccs[i].size() == 1 && !graph_.self_loop(i)) {
      walk_.push_back({static_cast<std::uint32_t>(sccs[i][0]), false});
      continue;
    }
    walk_.push_back({static_cast<std::uint32_t>(i), true});
    hook_free_ = false;

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
  if (hook_free_) install_hooks(nullptr);
}

void AnalyzedScheduler::finish_resolve() {
  if (hook_free_) {
    ctx_.resolutions += 2 * static_cast<std::uint64_t>(conn_tape_.size());
    return;
  }
  cleanup_unresolved();
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
  for (const WalkStep step : walk_) {
    if (step.scc) {
      run_scc(step.index);
    } else {
      execute_node(step.index);
    }
  }
  finish_resolve();
}

}  // namespace liberty::core
