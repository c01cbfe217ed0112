// ChromeTraceWriter: streaming Chrome trace-event JSON exporter.
//
// Produces a `{"traceEvents":[...]}` document loadable by Perfetto /
// chrome://tracing.  Two synthetic "processes" organize the timeline:
//
//   pid 1  "liberty kernel"   tid 0 carries one "X" (complete) slice per
//                             scheduler phase per cycle.
//   pid 2  "transfers"        one flow-event pair ("s" producer ->
//                             "f" consumer, tid = ModuleId) per completed
//                             channel transfer, reusing the kernel's
//                             TransferObserver seam.
//
// Timestamps are microseconds since writer construction; phase slices
// arrive from the kernel as (end, duration) and are emitted with
// ts = now - dur.  The writer is installed as the *sink* of a
// CycleProfiler or directly as a scheduler's probe, and its transfer
// observer runs during the commit phase.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>

#include "liberty/core/probe.hpp"
#include "liberty/obs/json.hpp"

namespace liberty::core {
class Simulator;
}  // namespace liberty::core

namespace liberty::obs {

class ChromeTraceWriter : public liberty::core::KernelProbe {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ~ChromeTraceWriter() override;

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Install a transfer observer on `sim` that emits one flow-event pair
  /// per completed transfer, plus thread-name metadata naming every module
  /// of the netlist.  The simulator must outlive this writer's last cycle.
  void attach_transfers(liberty::core::Simulator& sim);

  /// Close the traceEvents array and the document.  Idempotent; also run
  /// by the destructor.  No events may be emitted afterwards.
  void finish();

  [[nodiscard]] std::uint64_t events_emitted() const noexcept {
    return events_;
  }

  // KernelProbe ------------------------------------------------------------
  void on_phase(liberty::core::SchedPhase phase, liberty::core::Cycle c,
                double seconds) override;

 private:
  [[nodiscard]] double now_us() const;
  void emit(const char* json);
  void emit_thread_name(int pid, std::uint64_t tid, const char* name);

  std::ostream& os_;
  JsonWriter writer_;
  std::chrono::steady_clock::time_point t0_;
  bool finished_ = false;
  std::uint64_t events_ = 0;
  std::uint64_t flow_ids_ = 0;
};

}  // namespace liberty::obs
