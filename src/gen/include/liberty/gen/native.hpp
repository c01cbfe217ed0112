// liberty::gen — true native codegen (the fourth scheduler).
//
// Where CompiledScheduler lowers the netlist to bytecode and interprets
// it, NativeScheduler emits one specialized C++ translation unit for the
// netlist, drives the host toolchain to compile it into a shared object,
// dlopens the result, and executes the eligible part of the netlist as
// straight machine code over POD state — no Value variants, no deques, no
// virtual dispatch, no per-channel objects on the fast path.  Everything
// the emitter has no recipe for (user subclasses, gated or multi-node
// SCCs, fanout topologies) stays on the bytecode tapes of the base class,
// in the same run, so any netlist still executes and the two halves stay
// bit-identical with the dynamic reference.
//
// The whole facility sits behind the LIBERTY_NATIVE_CODEGEN CMake option
// (default OFF).  In an OFF build this header still compiles, the options
// struct still exists (front ends can parse their flags unconditionally),
// native_available() returns false, register_native_scheduler() is a
// no-op, and SchedulerKind::Native degrades to the compiled bytecode
// backend with a one-time notice (see core/simulator.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "liberty/gen/compiled_scheduler.hpp"

namespace liberty::obs {
class MetricsRegistry;
}

namespace liberty::gen {

/// Process-wide knobs for the native backend, read at scheduler
/// construction (lss_run --codegen-cache-dir / --dump-native-src map
/// straight onto these; tests adjust them around a scope).
struct NativeOptions {
  /// Artifact cache directory.  Resolution order: this field, the
  /// LIBERTY_NATIVE_CACHE_DIR environment variable, then
  /// <system-temp>/liberty-native-cache.
  std::string cache_dir;
  /// When nonempty, every generated translation unit is also written to
  /// this path (inspection / golden diffing).
  std::string dump_source_path;
  /// Optimization level handed to the host compiler (-O<n>).  Overridden
  /// by the LIBERTY_NATIVE_OPT environment variable when set.  Part of the
  /// cache key.
  int backend_opt = 2;
};
[[nodiscard]] NativeOptions& native_options();

/// True when this build carries the native backend
/// (-DLIBERTY_NATIVE_CODEGEN=ON).  Tests use this to skip cleanly.
[[nodiscard]] bool native_available() noexcept;

/// Number of host-compiler invocations this process has made (cache hits
/// do not count; the cache-hygiene test asserts it stays flat across a
/// second elaboration of the same netlist).
[[nodiscard]] std::uint64_t native_compile_invocations() noexcept;

// Hostile-toolchain counters (docs/codegen.md, "Cache hygiene").  All read
// zero in -DLIBERTY_NATIVE_CODEGEN=OFF builds and count process-wide.

/// Cached artifacts reused after passing manifest validation.
[[nodiscard]] std::uint64_t native_cache_hits() noexcept;
/// Cached artifacts renamed aside (truncated, content-hash mismatch, stale
/// ABI, missing manifest, or undlopenable) instead of being trusted.
[[nodiscard]] std::uint64_t native_cache_quarantined() noexcept;
/// Compiler invocations that were retries of a failed/timed-out attempt.
[[nodiscard]] std::uint64_t native_compile_retries() noexcept;
/// Compiler invocations killed at the wall-clock deadline
/// (LIBERTY_NATIVE_COMPILE_TIMEOUT_MS, default 60000).
[[nodiscard]] std::uint64_t native_compile_timeouts() noexcept;

/// Export the stable gen.native.cache.* counters (hits, quarantined,
/// compile_retries, compile_timeouts, compiles) into `reg`.
void export_native_metrics(obs::MetricsRegistry& reg);

/// Content-address of one built artifact: FNV-1a over the generated
/// source, the compiler identification line, and the backend -O level.
/// Pure (unit-testable): changing any ingredient — including only the
/// compiler version — keys out the stale entry.
[[nodiscard]] std::uint64_t native_cache_key(std::string_view source,
                                             std::string_view compiler_id,
                                             int backend_opt) noexcept;

/// Install the SchedulerKind::Native factory (idempotent).  No-op in
/// builds without LIBERTY_NATIVE_CODEGEN.  ensure_registered() calls this,
/// so front ends need nothing new.
void register_native_scheduler();

/// The fourth scheduler.  Defined only in LIBERTY_NATIVE_CODEGEN builds;
/// construct through Simulator(..., SchedulerKind::Native) or directly
/// when a test needs the introspection surface below.
class NativeScheduler final : public CompiledScheduler {
 public:
  explicit NativeScheduler(liberty::core::Netlist& netlist);
  ~NativeScheduler() override;

  [[nodiscard]] std::string_view kind_name() const override {
    return "native";
  }

  /// True while the dlopened image executes part of the netlist.  False
  /// when nothing was eligible, compilation failed (graceful degradation:
  /// the run continues on the bytecode tapes), or a fault hook forced
  /// retirement.
  [[nodiscard]] bool native_active() const noexcept;
  /// Modules / channels executed by the image (0 when inactive).
  [[nodiscard]] std::size_t native_module_count() const noexcept;
  [[nodiscard]] std::size_t native_channel_count() const noexcept;
  /// The generated translation unit (empty when nothing was eligible).
  [[nodiscard]] const std::string& native_source() const noexcept;

  void visit_counters(const CounterVisitor& visit) const override;
  void sync_module_state() override;
  void reimport_module_state() override;

 protected:
  void start_phase() override;
  void resolve_cycle() override;
  void update_phase(std::uint64_t eoc_token) override;

 private:
  struct Impl;
  void retire_to_bytecode();

  std::unique_ptr<Impl> impl_;
};

}  // namespace liberty::gen
