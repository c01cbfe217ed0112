// The long differential sweep: 500 fuzzed netlists, each run under the
// dynamic reference plus static and compiled candidates — and then again
// with dynamic/static/compiled at optimizer level 2 — requiring
// bit-identical transfers, state digests, and statistics.  Carries the
// `fuzz` CTest label so it can be targeted (or excluded) with `ctest -L
// fuzz` / `ctest -LE fuzz`.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>

#include "liberty/ccl/ccl.hpp"
#include "liberty/gen/compiled_scheduler.hpp"
#include "liberty/gen/native.hpp"
#include "liberty/resil/durable.hpp"
#include "liberty/resil/recovery.hpp"
#include "liberty/scenario/rack.hpp"
#include "liberty/testing/fuzzer.hpp"
#include "liberty/testing/oracle.hpp"
#include "test_util.hpp"

namespace {

using liberty::core::SchedulerKind;
using liberty::testing::Candidate;

TEST(FuzzStress, FiveHundredSeedsZeroDivergence) {
  liberty::core::ModuleRegistry registry;
  liberty::pcl::register_pcl(registry);
  liberty::ccl::register_ccl(registry);
  const liberty::testing::FuzzConfig cfg;
  liberty::testing::OracleConfig oracle;
  oracle.candidates = {
      Candidate{SchedulerKind::Static, 0},
      Candidate{SchedulerKind::Compiled, 0},
      Candidate{SchedulerKind::Dynamic, 0, /*opt_level=*/2},
      Candidate{SchedulerKind::Static, 0, /*opt_level=*/2},
      Candidate{SchedulerKind::Compiled, 0, /*opt_level=*/2},
  };
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const liberty::testing::NetSpec spec =
        liberty::testing::generate_netlist(seed, cfg);
    const liberty::testing::OracleResult r =
        liberty::testing::run_oracle(spec, registry, oracle);
    ASSERT_TRUE(r.ok) << "seed " << seed << "\n"
                      << r.report() << spec.render();
  }
}

// The rack family: seeded full-system netlists (every component library at
// once — hosts, NIC firmware cores, coherence planes, the wormhole mesh)
// through the same differential oracle.  Smaller battery than the pcl/ccl
// sweep because each netlist is two orders of magnitude bigger.
TEST(FuzzStress, RackFamilyFiveHundredSeedsZeroDivergence) {
  liberty::core::ModuleRegistry registry;
  liberty::scenario::register_rack_libraries(registry);
  liberty::gen::ensure_registered();
  liberty::testing::OracleConfig oracle;
  oracle.snapshot_every = 256;
  oracle.candidates = {
      Candidate{SchedulerKind::Static, 0},
      Candidate{SchedulerKind::Compiled, 0},
      Candidate{SchedulerKind::Static, 0, /*opt_level=*/2},
      Candidate{SchedulerKind::Compiled, 0, /*opt_level=*/2},
  };
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const liberty::testing::NetSpec spec =
        liberty::scenario::fuzz_rack_netspec(seed);
    const liberty::testing::OracleResult r =
        liberty::testing::run_oracle(spec, registry, oracle);
    ASSERT_TRUE(r.ok) << "rack seed " << seed << "\n"
                      << r.report() << spec.render();
  }
}

// Crash-recovery slice: SIGKILL a durable rack run at 100 seeded cycles
// and prove every resume reaches the uninterrupted digest bit-identically
// (docs/resilience.md, "Durable checkpoints").  The scheduler rotates
// across the kinds so the spill/resume path is exercised under each
// kernel.
TEST(FuzzStress, RackKillResumeHundredSeededCyclesBitIdentical) {
  liberty::core::ModuleRegistry registry;
  liberty::scenario::register_rack_libraries(registry);
  liberty::gen::ensure_registered();
  liberty::scenario::RackConfig cfg;  // default 2x2 mesh
  cfg.requests_per_node = 2;
  cfg.worker_iters = 8;
  cfg.cycles = 400;
  const liberty::testing::NetSpec spec = liberty::scenario::rack_netspec(cfg);

  const auto run_durable = [&](SchedulerKind kind, const std::string& dir,
                               bool resume, liberty::core::Cycle kill_at) {
    liberty::core::Netlist nl;
    spec.build(nl, registry);
    liberty::resil::SupervisorConfig scfg;
    scfg.scheduler = kind;
    scfg.checkpoint_every = 16;
    scfg.policy = liberty::resil::RecoveryPolicy::Abort;
    liberty::resil::DurableConfig dcfg;
    dcfg.dir = dir;
    dcfg.keep_last = 4;
    dcfg.resume = resume;
    dcfg.kill_at = kill_at;
    liberty::resil::DurableSupervisor sup(nl, scfg, dcfg);
    const liberty::resil::RecoveryReport rep = sup.run(cfg.cycles);
    EXPECT_TRUE(rep.completed) << rep.summary();
    return std::make_pair(rep.trace_digest(), rep.state_digest);
  };

  constexpr SchedulerKind kinds[] = {
      SchedulerKind::Dynamic, SchedulerKind::Static, SchedulerKind::Compiled};
  constexpr std::size_t kKinds = std::size(kinds);

  // One uninterrupted reference digest per scheduler kind.
  std::pair<std::uint64_t, std::uint64_t> full[kKinds];
  for (std::size_t k = 0; k < kKinds; ++k) {
    char tmpl[] = "/tmp/liberty-rack-ref-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    full[k] = run_durable(kinds[k], tmpl, false, 0);
    std::error_code ec;
    std::filesystem::remove_all(tmpl, ec);
    // Schedulers agree before we start killing.
    ASSERT_EQ(full[k], full[0]) << "scheduler " << static_cast<int>(kinds[k]);
  }

  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    // Seeded kill cycle in [10, 390): past the first spill, before the end.
    const liberty::core::Cycle kill_at =
        10 + (seed * 2654435761ULL) % (cfg.cycles - 20);
    const SchedulerKind kind = kinds[seed % kKinds];
    char tmpl[] = "/tmp/liberty-rack-kill-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: dies by SIGKILL when kill_at commits.
      liberty::core::Netlist nl;
      spec.build(nl, registry);
      liberty::resil::SupervisorConfig scfg;
      scfg.scheduler = kind;
      scfg.checkpoint_every = 16;
      liberty::resil::DurableConfig dcfg;
      dcfg.dir = dir;
      dcfg.keep_last = 4;
      dcfg.kill_at = kill_at;
      liberty::resil::DurableSupervisor sup(nl, scfg, dcfg);
      (void)sup.run(cfg.cycles);
      ::_exit(42);  // kill_at never fired: the parent flags this
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "seed " << seed << ": child survived its kill cycle " << kill_at
        << " (status " << status << ")";

    const auto resumed = run_durable(kind, dir, true, 0);
    EXPECT_EQ(resumed, full[seed % kKinds])
        << "seed " << seed << " killed at " << kill_at << " diverged";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

// Native-codegen slice: 200 fuzzed netlists against the native scheduler
// at -O0 and -O2.  Chains the emitter declines run on the bytecode
// fallback inside the same scheduler, so every generated netlist is a
// valid candidate.  Skips cleanly in LIBERTY_NATIVE_CODEGEN=OFF builds.
TEST(FuzzStress, NativeTwoHundredSeedsZeroDivergence) {
  if (!liberty::gen::native_available()) {
    GTEST_SKIP() << "built with LIBERTY_NATIVE_CODEGEN=OFF";
  }
  liberty::gen::ensure_registered();
  // One shared artifact cache for the whole sweep, and -O0 host compiles:
  // distinct netlist shapes each cost one toolchain invocation, repeats
  // are cache hits.
  char tmpl[] = "/tmp/liberty-native-fuzz-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  liberty::gen::native_options().cache_dir = tmpl;
  liberty::gen::native_options().backend_opt = 0;

  liberty::core::ModuleRegistry registry;
  liberty::pcl::register_pcl(registry);
  liberty::ccl::register_ccl(registry);
  const liberty::testing::FuzzConfig cfg;
  liberty::testing::OracleConfig oracle;
  oracle.candidates = {
      Candidate{SchedulerKind::Native, 0},
      Candidate{SchedulerKind::Native, 0, /*opt_level=*/2},
  };
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const liberty::testing::NetSpec spec =
        liberty::testing::generate_netlist(seed, cfg);
    const liberty::testing::OracleResult r =
        liberty::testing::run_oracle(spec, registry, oracle);
    if (!r.ok) {
      liberty::gen::native_options() = liberty::gen::NativeOptions{};
      std::filesystem::remove_all(tmpl);
    }
    ASSERT_TRUE(r.ok) << "native seed " << seed << "\n"
                      << r.report() << spec.render();
  }
  liberty::gen::native_options() = liberty::gen::NativeOptions{};
  std::error_code ec;
  std::filesystem::remove_all(tmpl, ec);
}

}  // namespace
