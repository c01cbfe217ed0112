// Schedulers: per-cycle resolution of the reactive model of computation.
//
// LSE "fixes its MoC to a reactive model of computation" (§2.3).  Every
// cycle, all signals start Unknown and module handlers run until every
// channel of every connection is resolved; because handlers are monotone the
// result is a unique fixed point.  Signals no module drives are *defaulted*
// by the kernel (forward channels to "offers nothing", managed backward
// channels to "refuses") — this is what lets partial specifications simulate.
//
// Two interchangeable schedulers here compute that fixed point (liberty_gen
// adds the compiled bytecode backend, which runs the static schedule):
//
//  * DynamicScheduler — event-driven worklist.  Whenever a channel resolves,
//    the module observing it is re-activated.  No knowledge of module
//    internals required; the baseline.
//
//  * StaticScheduler — exploits the dependency information modules declare
//    (Module::declare_deps) to order channel resolution topologically at
//    construction time, so that in the common (acyclic) case each handler
//    runs a constant number of times per cycle.  Genuine combinational
//    cycles are condensed into SCCs and only those iterate.  This implements
//    the paper's §2.3 claim (ref [22], Penry & August, DAC 2003) that fixing
//    the MoC makes the specification analyzable for optimization.
//
// All schedulers produce bit-identical simulations; tests verify this on
// every component library and on randomized netlists.  The kernel is
// single-threaded: one thread runs every phase of a cycle, so scheduler
// and channel state are plain fields.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "liberty/core/netlist.hpp"
#include "liberty/core/probe.hpp"
#include "liberty/core/types.hpp"

namespace liberty::core {

namespace detail {

/// Per-cycle resolution bookkeeping of one scheduler (SchedulerBase::ctx_).
/// run_cycle zeroes it at the top of each cycle and folds it into the
/// scheduler's totals as the cycle completes, so a cycle that aborts
/// mid-resolve adds nothing to them.
struct ResolveCtx {
  std::uint64_t resolutions = 0;  // channel resolutions observed
  std::uint64_t reacts = 0;       // Module::react invocations
  std::uint64_t defaults = 0;     // kernel defaulting actions
  std::vector<Connection*> transferred;  // dirty list: completed transfers

  // Profiling (active only while a KernelProbe is installed): per-module
  // react attribution, flushed to the probe and zeroed at the end of every
  // cycle.
  bool timing = false;
  std::vector<std::uint64_t> mod_reacts;
  std::vector<double> mod_seconds;

  void size_profile(std::size_t n_modules) {
    if (mod_reacts.size() < n_modules) {
      mod_reacts.resize(n_modules, 0);
      mod_seconds.resize(n_modules, 0.0);
    }
  }
};

void timed_react(Module& m, ResolveCtx& ctx);

}  // namespace detail

/// Channel dependency graph + SCC condensation of one netlist, built from
/// the dependencies modules declare.  This is the §2.3 analysis artifact;
/// the static scheduler walks its SCCs in topological order.
class ScheduleGraph {
 public:
  struct Node {
    Connection* conn = nullptr;
    ChannelKind kind = ChannelKind::Forward;
    Module* driver = nullptr;  // nullptr => kernel-driven (AutoAccept ack)
  };

  void build(Netlist& netlist);

  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const std::vector<std::vector<ChannelId>>& succs()
      const noexcept {
    return succs_;
  }
  [[nodiscard]] const std::vector<std::vector<ChannelId>>& preds()
      const noexcept {
    return preds_;
  }
  /// SCCs in topological order of the condensation.
  [[nodiscard]] const std::vector<std::vector<ChannelId>>& sccs()
      const noexcept {
    return sccs_;
  }
  [[nodiscard]] bool self_loop(std::size_t scc) const noexcept {
    return self_loop_[scc] != 0;
  }
  /// SCC index of each channel.
  [[nodiscard]] const std::vector<std::uint32_t>& scc_of() const noexcept {
    return scc_of_;
  }
  [[nodiscard]] std::size_t largest_scc() const noexcept;

 private:
  void add_module_edges(Netlist& netlist,
                        std::vector<std::vector<ChannelId>>& succs,
                        std::vector<std::vector<ChannelId>>& preds);
  void compute_sccs();

  std::vector<Node> nodes_;                    // index == ChannelId
  std::vector<std::vector<ChannelId>> succs_;  // adjacency (dep -> dependent)
  std::vector<std::vector<ChannelId>> preds_;
  std::vector<std::vector<ChannelId>> sccs_;   // topological order
  std::vector<std::uint32_t> scc_of_;          // per channel
  std::vector<char> self_loop_;                // per SCC index
};

class FaultHook;

/// Fixed-point iteration guard: an SCC (static/compiled) or worklist
/// (dynamic) that exceeds this many passes in one cycle is reported as a
/// non-converging combinational loop instead of spinning.  Monotone channel
/// resolution structurally bounds genuine work well below this, so the
/// default never fires on a correct netlist; front ends lower it via
/// SchedulerBase::set_iteration_cap (lss_run --max-iters).
inline constexpr std::uint64_t kDefaultIterationCap = 1'000'000;

/// True when liberty_core was compiled with LIBERTY_CHECKED_KERNEL (the
/// full per-connection end-of-cycle audit).  The macro is private to the
/// core library; code outside it (build fingerprints, reports) reads the
/// build's setting through this.
[[nodiscard]] bool checked_kernel_enabled() noexcept;

class SchedulerBase : public ResolveHooks {
 public:
  using TransferObserver = std::function<void(const Connection&, Cycle)>;
  /// Introspection-counter visitor (see visit_counters).
  using CounterVisitor =
      std::function<void(std::string_view name, std::uint64_t value)>;

  explicit SchedulerBase(Netlist& netlist);
  ~SchedulerBase() override;

  SchedulerBase(const SchedulerBase&) = delete;
  SchedulerBase& operator=(const SchedulerBase&) = delete;

  /// Execute one full cycle: cycle_start, resolve to fixed point, verify,
  /// end_of_cycle, notify observers, reset channels.
  void run_cycle(Cycle c);

  [[nodiscard]] virtual std::string_view kind_name() const = 0;

  void add_transfer_observer(TransferObserver obs) {
    observers_.push_back(std::move(obs));
  }

  /// Install (or clear, with nullptr) the observability probe.  Must be
  /// called between cycles; the kernel never takes ownership.  With no
  /// probe installed all instrumentation reduces to null/flag checks.
  void set_probe(KernelProbe* probe) noexcept { probe_ = probe; }
  [[nodiscard]] KernelProbe* probe() const noexcept { return probe_; }

  /// Install (or clear, with nullptr) the deterministic fault-injection
  /// hook on every connection of this netlist (liberty/core/fault.hpp;
  /// liberty::resil::FaultInjector is the implementation).  Must be called
  /// between cycles; the kernel never takes ownership.
  void set_fault_hook(FaultHook* hook);

  /// Cap fixed-point passes per cycle (0 = unlimited); exceeding it throws
  /// SimulationError naming the oscillating channel set.  The cap is a
  /// per-scheduler work measure, not part of the bit-identical semantics.
  void set_iteration_cap(std::uint64_t cap) noexcept { iter_cap_ = cap; }
  [[nodiscard]] std::uint64_t iteration_cap() const noexcept {
    return iter_cap_;
  }

  /// Reset mid-cycle kernel state after run_cycle aborted with an exception
  /// (watchdog violation, injected handler fault, non-convergence): wipes
  /// every channel and re-arms fused-chain sweep stamps.  Simulator::restore
  /// calls this unconditionally — between cycles it is a harmless no-op
  /// re-initialization.
  void recover_after_abort() noexcept;

  /// Visit every introspection counter of this scheduler, base counters
  /// first, then subclass-specific ones.  Counter names are stable,
  /// documented identifiers (docs/observability.md); the obs layer
  /// federates them into the MetricsRegistry without the kernel depending
  /// on any exporter.
  virtual void visit_counters(const CounterVisitor& visit) const;

  /// Total react() invocations across all cycles (scheduler efficiency
  /// metric used by bench_scheduler).
  [[nodiscard]] std::uint64_t react_calls() const noexcept {
    return react_calls_;
  }
  /// Total kernel defaulting actions across all cycles.
  [[nodiscard]] std::uint64_t defaults_applied() const noexcept {
    return defaults_;
  }
  /// Cycles executed by this scheduler (run_cycle invocations).
  [[nodiscard]] std::uint64_t cycles_run() const noexcept {
    return cycles_run_;
  }
  /// Total channel resolutions across all cycles.
  [[nodiscard]] std::uint64_t resolutions() const noexcept {
    return total_resolutions_;
  }
  /// Total transfers committed across all cycles.
  [[nodiscard]] std::uint64_t transfers_committed() const noexcept {
    return transfers_committed_;
  }

  // ResolveHooks: every scheduler counts resolutions and maintains the
  // transferred-connection dirty list; subclasses extend as needed.
  void on_forward_resolved(Connection& c) override { note_resolved(c); }
  void on_backward_resolved(Connection& c) override { note_resolved(c); }

  /// The optimizer plan captured from the netlist at construction (null
  /// when simulating as written).
  [[nodiscard]] const OptPlan* opt_plan() const noexcept { return plan_; }

 protected:
  virtual void resolve_cycle() = 0;

  /// Phase seams: run_cycle delegates the cycle_start and end_of_cycle
  /// sweeps to these virtuals so a backend with its own per-module
  /// schedule (the compiled scheduler's start/commit tapes) can replace
  /// the generic loops.  `cycle_` is valid when they run; overrides must
  /// preserve the base loops' observable behaviour exactly (now_ stamping,
  /// quarantine and elide skips).
  virtual void start_phase();
  virtual void update_phase();

  /// Module::now_ is private with SchedulerBase as its friend; friendship
  /// does not extend to subclasses, so phase overrides stamp through this.
  static void set_now(Module& m, Cycle c) noexcept { m.now_ = c; }

  /// Record a channel resolution.  When the resolution completes a
  /// transfer, the connection joins the dirty list: of a connection's two
  /// resolutions only the second sees both channels asserted, so each
  /// transfer is recorded exactly once.
  void note_resolved(Connection& c) {
    ++ctx_.resolutions;
    if (c.transferred()) ctx_.transferred.push_back(&c);
  }

  void call_react(Module& m) {
    if (any_quarantined_ && quarantined_[m.id()] != 0) return;
    ++ctx_.reacts;
    if (ctx_.timing) {
      detail::timed_react(m, ctx_);
    } else {
      m.react();
    }
  }

  /// Quarantined module (Netlist::quarantine): its handlers never run; its
  /// channels fall to kernel defaults / AutoAccept control.  Flags are
  /// cached at construction — quarantining requires a simulator rebuild.
  [[nodiscard]] bool module_quarantined(ModuleId id) const noexcept {
    return any_quarantined_ && quarantined_[id] != 0;
  }
  /// Resolve an undriven forward channel to "offers nothing".
  void default_forward(Connection& c);
  /// Resolve an undriven managed backward channel to "refuses".  Skipped
  /// when a gated intent is still pending (it resolves with its forward).
  void default_backward(Connection& c);
  /// Kernel drive for an AutoAccept backward channel whose forward is
  /// known.
  static void apply_auto_accept(Connection& c);

  void install_hooks(ResolveHooks* h);

  /// Sum of connection generations: a cheap global progress measure.
  [[nodiscard]] std::uint64_t total_generation() const noexcept;

  // ---- Optimizer consumption ---------------------------------------------
  //
  // All optimizer effects are annotations on the unchanged netlist: the
  // plan tells the scheduler which channels to pre-resolve (apply_consts),
  // which modules to skip entirely (elided) and which module groups to
  // resolve with one fused sweep (run_chain).  plan_ == nullptr restores
  // -O0 behaviour with one branch per hot-path site.

  /// Pre-resolve all provably constant channels (top of run_cycle; module
  /// re-drives of the same values are idempotent no-ops).
  void apply_consts();
  /// Attempt the forward and backward sweep of fused chain `idx`.  Safe to
  /// call repeatedly; each sweep runs at most once per cycle (stamped with
  /// cycles_run_+1, which is monotone even across snapshot restore).
  void run_chain(std::size_t idx);
  [[nodiscard]] bool module_elided(ModuleId id) const noexcept {
    return plan_ != nullptr && plan_->elided[id] != 0;
  }

  /// Per-chain runtime state: cycle stamps making each sweep single-shot,
  /// and sweep counters.
  struct ChainState {
    std::uint64_t fwd_stamp = 0;
    std::uint64_t bwd_stamp = 0;
    std::uint64_t fwd_sweeps = 0;
    std::uint64_t bwd_sweeps = 0;
  };

  const OptPlan* plan_ = nullptr;
  std::vector<ChainState> chain_state_;
  std::uint64_t opt_pre_resolved_ = 0;

  Netlist& netlist_;
  std::vector<TransferObserver> observers_;
  KernelProbe* probe_ = nullptr;
  FaultHook* fault_ = nullptr;
  std::uint64_t iter_cap_ = kDefaultIterationCap;
  // Quarantine flags cached from the netlist at construction (dense array:
  // checked inside call_react on the hot path).
  std::vector<char> quarantined_;
  bool any_quarantined_ = false;
  Cycle cycle_ = 0;  // cycle currently executing (valid inside run_cycle)
  std::uint64_t react_calls_ = 0;
  std::uint64_t defaults_ = 0;
  std::uint64_t cycles_run_ = 0;
  std::uint64_t total_resolutions_ = 0;
  std::uint64_t transfers_committed_ = 0;

  // Flattened "schedule tape": raw pointers in execution order, so the
  // per-cycle passes walk dense arrays instead of chasing unique_ptrs.
  std::vector<Module*> module_tape_;
  std::vector<Connection*> conn_tape_;

  // This cycle's resolutions, reacts, defaults and dirty list.
  detail::ResolveCtx ctx_;

 private:
  void verify_resolved(Cycle cycle) const;
};

/// Event-driven worklist scheduler (the semantics-defining baseline).
/// The worklist is a fixed-capacity ring buffer (a module is queued at most
/// once, so capacity = module count suffices) with epoch-stamped queued
/// marks: a module is queued iff its stamp equals the current epoch, and
/// bumping the epoch un-queues everything in O(1) at cycle start.
class DynamicScheduler final : public SchedulerBase {
 public:
  explicit DynamicScheduler(Netlist& netlist);

  [[nodiscard]] std::string_view kind_name() const override {
    return "dynamic";
  }

  void on_forward_resolved(Connection& c) override;
  void on_backward_resolved(Connection& c) override;

  void visit_counters(const CounterVisitor& visit) const override;

  /// Modules actually inserted into the worklist ring (a module already
  /// queued this epoch does not count).
  [[nodiscard]] std::uint64_t worklist_pushes() const noexcept {
    return pushes_;
  }

 protected:
  void resolve_cycle() override;

 private:
  void enqueue(Module* m);
  void drain();

  std::uint64_t cycle_pops_ = 0;  // worklist pops this cycle (iteration cap)
  std::vector<Module*> ring_;  // power-of-two capacity ring buffer
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::vector<std::uint64_t> queued_stamp_;  // == epoch_ <=> queued
  std::uint64_t epoch_ = 1;
  std::uint64_t pushes_ = 0;
  std::size_t high_water_ = 0;
};

/// Shared machinery of the analysis-driven schedulers (static & compiled):
/// node execution, SCC fixed-point iteration, and the endgame for channels
/// the schedule could not attribute.
class AnalyzedScheduler : public SchedulerBase {
 public:
  /// Schedule shape introspection (tests and bench_scheduler reporting).
  [[nodiscard]] std::size_t scc_count() const noexcept {
    return graph_.sccs().size();
  }
  [[nodiscard]] std::size_t largest_scc() const noexcept {
    return graph_.largest_scc();
  }

  void visit_counters(const CounterVisitor& visit) const override;

  /// Total quiescence passes over multi-node SCC groups (run_scc inner
  /// iterations, summed over all SCCs); divide by cycles_run() for the
  /// per-cycle average.
  [[nodiscard]] std::uint64_t fixedpoint_passes() const noexcept;
  /// Times the global quiesce-then-default endgame had unresolved work.
  [[nodiscard]] std::uint64_t cleanup_activations() const noexcept {
    return cleanup_activations_;
  }

 protected:
  explicit AnalyzedScheduler(Netlist& netlist);

  [[nodiscard]] bool node_resolved(ChannelId id) const;
  void execute_node(ChannelId id);
  void run_scc(std::size_t scc_index);
  void cleanup_unresolved();
  /// Iteration cap exceeded in run_scc: report the SCC's channel chain as a
  /// non-converging combinational loop.
  [[noreturn]] void throw_nonconvergence(std::size_t scc_index,
                                         std::uint64_t passes) const;

  ScheduleGraph graph_;
  // Precomputed per-SCC execution state (replaces per-cycle driver
  // discovery and defaulting-order sorts in the old run_scc hot path).
  std::vector<std::vector<Module*>> scc_drivers_;
  std::vector<std::vector<ChannelId>> scc_order_;  // forwards first
  // Introspection counters.
  std::vector<std::uint64_t> scc_iters_;
  std::uint64_t cleanup_activations_ = 0;
};

/// Statically scheduled sequential resolver built from declared
/// dependencies.
class StaticScheduler final : public AnalyzedScheduler {
 public:
  explicit StaticScheduler(Netlist& netlist);

  [[nodiscard]] std::string_view kind_name() const override {
    return "static";
  }

 protected:
  void resolve_cycle() override;
};

}  // namespace liberty::core
