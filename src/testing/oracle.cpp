#include "liberty/testing/oracle.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "liberty/core/state.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/obs/profiler.hpp"
#include "liberty/opt/optimizer.hpp"
#include "liberty/resil/injector.hpp"
#include "liberty/resil/watchdog.hpp"

namespace liberty::testing {

namespace {

using liberty::core::Connection;
using liberty::core::Cycle;
using liberty::core::KernelSnapshot;
using liberty::core::Netlist;
using liberty::core::SchedulerKind;
using liberty::core::Simulator;
using liberty::core::fnv1a_mix;
using liberty::core::kFnv1aInit;
using liberty::resil::FaultInjector;
using liberty::resil::FaultPlan;

/// The semantics every candidate is checked against.
constexpr Candidate kReference{SchedulerKind::Dynamic, 0, 0};

/// One simulator as the oracle builds it: the spec elaborated, optimized at
/// the candidate's level, and the fault plan installed.  Members are
/// destroyed in reverse order, the simulator first: the injector and the
/// netlist must outlive it (the scheduler's destructor clears the
/// per-connection hooks).
struct Rig {
  Rig(const NetSpec& spec, const liberty::core::ModuleRegistry& registry,
      const Candidate& who, const FaultPlan* plan) {
    spec.build(netlist, registry);
    if (who.opt_level > 0) {
      liberty::opt::optimize(
          netlist, liberty::opt::OptOptions::for_level(who.opt_level));
    }
    if (plan != nullptr) injector = std::make_unique<FaultInjector>(*plan);
    sim = std::make_unique<Simulator>(netlist, who.kind);
    if (injector != nullptr) injector->install(*sim);
  }

  Netlist netlist;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<Simulator> sim;
};

/// What the coarse phase compares at a window boundary: the hash of every
/// transfer since the previous boundary and the state digest at this one.
struct WindowCheck {
  std::uint64_t trace = kFnv1aInit;
  std::uint64_t state = 0;

  bool operator==(const WindowCheck&) const = default;
};

/// Window `w` spans cycles [w * every, window_end(w)); the last may be short.
Cycle window_end(std::size_t w, Cycle every, Cycle cycles) {
  return std::min<Cycle>((w + 1) * every, cycles);
}

/// What one simulator's coarse phase leaves for the comparison: every
/// window's check and the final stats dump, or the exception that ended
/// its set-up or its run (with the checks of the windows it completed).
struct CoarseRun {
  std::vector<WindowCheck> windows;
  std::string stats;
  std::exception_ptr error;
};

/// Coarse phase for one simulator: run the full cycle budget, and at every
/// window boundary fold the state digest into the window's check.  Nothing
/// but the checks outlives its window.
void run_coarse(Rig& rig, Cycle cycles, Cycle every, bool profile,
                CoarseRun& out) noexcept {
  try {
    // With `profile` the probe rides along purely to prove it cannot
    // perturb the comparison; its aggregates are discarded.
    liberty::obs::CycleProfiler prof;
    if (profile) rig.sim->set_probe(&prof);

    WindowCheck check;
    rig.sim->observe_transfers([&check](const Connection& c, Cycle cycle) {
      check.trace =
          liberty::resil::mix_transfer(fnv1a_mix(check.trace, cycle), c);
    });
    for (Cycle c = 0; c < cycles; ++c) {
      rig.sim->step();
      if (c + 1 == window_end(out.windows.size(), every, cycles)) {
        check.state = rig.sim->state_digest();
        out.windows.push_back(check);
        check = WindowCheck{};
      }
    }
    std::ostringstream oss;
    rig.netlist.dump_stats(oss);
    out.stats = std::move(oss).str();
  } catch (...) {
    out.error = std::current_exception();
  }
}

/// Call job(i) for every i in [0, n) on min(hardware threads, n) threads,
/// the calling thread among them; returns once every job is done.  `job`
/// must not throw.  A thread that cannot be started leaves its share to
/// the others.
template <class Job>
void run_all(std::size_t n, const Job& job) {
  const std::size_t threads = std::min<std::size_t>(
      n, std::max(1U, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) job(i);
  };
  std::vector<std::jthread> pool;
  pool.reserve(threads);
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      pool.emplace_back(worker);
    } catch (const std::system_error&) {
      break;
    }
  }
  worker();
}

/// The kernel state `who` reaches at cycle `at`, replayed from cycle 0.
KernelSnapshot snapshot_at(const NetSpec& spec,
                           const liberty::core::ModuleRegistry& registry,
                           const Candidate& who, const FaultPlan* plan,
                           Cycle at) {
  Rig replay(spec, registry, who, plan);
  while (replay.sim->now() < at) replay.sim->step();
  return replay.sim->snapshot();
}

/// Phase 2: bring fresh reference and candidate simulators to the last
/// agreeing boundary (the start of `window`) and replay in lockstep to the
/// exact divergent cycle.
Divergence bisect_window(const NetSpec& spec,
                         const liberty::core::ModuleRegistry& registry,
                         const Candidate& cand, std::size_t window,
                         Cycle every, const FaultPlan* plan) {
  Divergence d;
  d.candidate = cand;

  // Lockstep replay must suffer the same faults as the coarse runs did —
  // fault mappings are pure functions of (connection, cycle), so replaying
  // to the boundary and restoring there reproduces them exactly.
  Rig ref(spec, registry, kReference, plan);
  Rig other(spec, registry, cand, plan);
  // Each side replays to the boundary on a scratch simulator and restores
  // its own snapshot into the fresh one (their digests agreed there, so
  // the states are equal in content) — this is the restore/replay path the
  // snapshot API exists for.  The replay cost lands only on divergence.
  const Cycle from = static_cast<Cycle>(window) * every;
  ref.sim->restore(snapshot_at(spec, registry, kReference, plan, from));
  other.sim->restore(snapshot_at(spec, registry, cand, plan, from));
  Simulator& sim_ref = *ref.sim;
  Simulator& sim_cand = *other.sim;

  std::vector<std::string> xfer_ref;
  std::vector<std::string> xfer_cand;
  // describe() is for display only: the data's content digest rides along
  // so a difference describe() leaves out still shows as a mismatch.
  const auto recorder = [](std::vector<std::string>& into) {
    return [&into](const Connection& c, Cycle cycle) {
      char digest[20];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(
                        liberty::digest_value(kFnv1aInit, c.data())));
      into.push_back("@" + std::to_string(cycle) + " conn#" +
                     std::to_string(c.id()) + " " + c.describe() + " = " +
                     c.data().to_string() + " [digest " + digest + "]");
    };
  };
  sim_ref.observe_transfers(recorder(xfer_ref));
  sim_cand.observe_transfers(recorder(xfer_cand));

  const Cycle stop = window_end(window, every, spec.cycles);
  while (sim_ref.now() < stop) {
    const Cycle cycle = sim_ref.now();
    xfer_ref.clear();
    xfer_cand.clear();
    sim_ref.step();
    sim_cand.step();

    std::vector<std::string> differing;
    const auto& mods_ref = ref.netlist.modules();
    const auto& mods_cand = other.netlist.modules();
    for (std::size_t i = 0; i < mods_ref.size(); ++i) {
      if (mods_ref[i]->state_digest() != mods_cand[i]->state_digest()) {
        differing.push_back(mods_ref[i]->name());
      }
    }
    if (xfer_ref != xfer_cand || !differing.empty()) {
      d.first_divergent_cycle = cycle;
      d.modules = std::move(differing);
      std::ostringstream oss;
      oss << "schedulers diverge at cycle " << cycle << " (dynamic vs "
          << cand.describe() << ")\n";
      if (!d.modules.empty()) {
        oss << "  modules with differing state:";
        for (const auto& m : d.modules) oss << " " << m;
        oss << "\n";
      }
      const std::size_t n =
          std::max(xfer_ref.size(), xfer_cand.size());
      for (std::size_t i = 0; i < n; ++i) {
        const std::string a = i < xfer_ref.size() ? xfer_ref[i] : "(none)";
        const std::string b = i < xfer_cand.size() ? xfer_cand[i] : "(none)";
        if (a != b) {
          oss << "  first transfer mismatch:\n    dynamic:   " << a
              << "\n    candidate: " << b << "\n";
          break;
        }
      }
      d.detail = oss.str();
      return d;
    }
  }

  // The window disagreed in aggregate but lockstep saw no per-cycle
  // difference (e.g. a hash collision) — report the window boundary.
  d.first_divergent_cycle = stop;
  d.detail = "divergence detected in window ending at cycle " +
             std::to_string(stop) + " but lockstep replay found no "
             "per-cycle difference (hash collision?)";
  return d;
}

}  // namespace

std::string Candidate::describe() const {
  std::string s(liberty::core::scheduler_kind_name(kind));
  if (opt_level > 0) s += "-O" + std::to_string(opt_level);
  return s;
}

std::string OracleResult::report() const {
  if (ok) return "all schedulers agree";
  std::string out;
  for (const Divergence& d : divergences) {
    out += d.detail;
    if (!out.empty() && out.back() != '\n') out += '\n';
  }
  return out;
}

OracleResult run_oracle(const NetSpec& spec,
                        const liberty::core::ModuleRegistry& registry,
                        const OracleConfig& config) {
  // The compiled backend registers through a seam (core cannot link gen);
  // doing it here covers every oracle user unconditionally.
  liberty::gen::ensure_registered();

  std::vector<Candidate> candidates = config.candidates;
  if (candidates.empty()) {
    candidates = {Candidate{SchedulerKind::Static, 0},
                  Candidate{SchedulerKind::Compiled, 0},
                  Candidate{SchedulerKind::Compiled, 0, /*opt_level=*/2}};
  }
  for (const Candidate& cand : candidates) {
    if (cand.threads != 0) {
      throw std::invalid_argument(
          "oracle candidate " + cand.describe() + " asks for " +
          std::to_string(cand.threads) +
          " threads; the kernel is single-threaded, threads must be 0");
    }
  }

  const Cycle every =
      config.snapshot_every == 0 ? 16 : config.snapshot_every;

  // Set-up stays on this thread: builds of one spec share its Params (whose
  // read tracking is not thread-safe).  A set-up that throws ends set-up
  // there, since no simulator after it can decide the outcome.
  std::vector<Candidate> order{kReference};
  order.insert(order.end(), candidates.begin(), candidates.end());
  std::vector<CoarseRun> runs(order.size());
  std::vector<std::unique_ptr<Rig>> rigs;
  for (std::size_t i = 0; i < order.size(); ++i) {
    try {
      rigs.push_back(std::make_unique<Rig>(spec, registry, order[i],
                                           config.fault_plan));
    } catch (...) {
      runs[i].error = std::current_exception();
      runs.resize(i + 1);
      break;
    }
  }

  // The reference and every candidate run at once; each keeps all of its
  // window checks, since the reference's are not known until the join.
  run_all(rigs.size(), [&](std::size_t i) {
    run_coarse(*rigs[i], spec.cycles, every, config.profile, runs[i]);
    rigs[i].reset();
  });

  // Compare in candidate order, as if the simulators had run one after
  // another: the reference's error comes first, and a candidate's error
  // counts only if it agreed in every window it completed.
  const CoarseRun& ref = runs.front();
  if (ref.error) std::rethrow_exception(ref.error);
  OracleResult result;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const Candidate& cand = order[i];
    const CoarseRun& run = runs[i];
    const std::size_t bad_window = static_cast<std::size_t>(
        std::mismatch(run.windows.begin(), run.windows.end(),
                      ref.windows.begin(), ref.windows.end())
            .first -
        run.windows.begin());

    if (bad_window == run.windows.size()) {
      if (run.error) std::rethrow_exception(run.error);
      if (run.stats == ref.stats) continue;  // candidate agrees
      Divergence d;
      d.candidate = cand;
      d.detail = "stats dump differs between dynamic and " +
                 cand.describe() +
                 " although transfers and state agree:\n--- dynamic\n" +
                 ref.stats + "--- candidate\n" + run.stats;
      result.ok = false;
      result.divergences.push_back(std::move(d));
      continue;
    }

    result.ok = false;
    if (config.bisect) {
      result.divergences.push_back(bisect_window(
          spec, registry, cand, bad_window, every, config.fault_plan));
    } else {
      const Cycle end = window_end(bad_window, every, spec.cycles);
      Divergence d;
      d.candidate = cand;
      d.first_divergent_cycle = end;
      d.detail = "dynamic and " + cand.describe() +
                 " diverge in window ending at cycle " + std::to_string(end) +
                 " (bisection disabled)";
      result.divergences.push_back(std::move(d));
    }
  }
  return result;
}

}  // namespace liberty::testing
