#include "liberty/obs/trace.hpp"

#include <cstdio>
#include <string>

#include "liberty/core/simulator.hpp"

namespace liberty::obs {

namespace {
constexpr int kKernelPid = 1;
constexpr int kTransferPid = 2;
}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os)
    : os_(os), writer_(os), t0_(std::chrono::steady_clock::now()) {
  writer_.begin_object();
  writer_.field("displayTimeUnit", "ms");
  writer_.begin_array("traceEvents");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                "\"args\":{\"name\":\"liberty kernel\"}}",
                kKernelPid);
  emit(buf);
  std::snprintf(buf, sizeof buf,
                "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                "\"args\":{\"name\":\"transfers\"}}",
                kTransferPid);
  emit(buf);
  emit_thread_name(kKernelPid, 0, "scheduler");
}

ChromeTraceWriter::~ChromeTraceWriter() { finish(); }

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  writer_.end_array();
  writer_.end_object();
  os_.flush();
}

double ChromeTraceWriter::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

void ChromeTraceWriter::emit(const char* json) {
  writer_.element_raw(json);
  ++events_;
}

void ChromeTraceWriter::emit_thread_name(int pid, std::uint64_t tid,
                                         const char* name) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"ph\":\"M\",\"pid\":%d,\"tid\":%llu,"
                "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                pid, static_cast<unsigned long long>(tid), name);
  emit(buf);
}

void ChromeTraceWriter::on_phase(liberty::core::SchedPhase phase,
                                 liberty::core::Cycle c, double seconds) {
  if (finished_) return;
  const double dur = seconds * 1e6;
  const double ts = now_us() - dur;
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "{\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"name\":\"%.*s\","
                "\"cat\":\"phase\",\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"cycle\":%llu}}",
                kKernelPid,
                static_cast<int>(liberty::core::phase_name(phase).size()),
                liberty::core::phase_name(phase).data(), ts, dur,
                static_cast<unsigned long long>(c));
  emit(buf);
}

void ChromeTraceWriter::attach_transfers(liberty::core::Simulator& sim) {
  for (const auto& mod : sim.netlist().modules()) {
    emit_thread_name(kTransferPid, mod->id(),
                     json_escape(mod->name()).c_str());
  }
  sim.observe_transfers(
      [this](const liberty::core::Connection& conn, liberty::core::Cycle c) {
        if (finished_) return;
        const double ts = now_us();
        const std::uint64_t id = ++flow_ids_;
        const std::string name =
            json_escape(conn.producer()->name() + "\xe2\x86\x92" +
                        conn.consumer()->name());
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"s\",\"pid\":%d,\"tid\":%llu,"
                      "\"name\":\"%s\",\"cat\":\"transfer\",\"id\":%llu,"
                      "\"ts\":%.3f,\"args\":{\"cycle\":%llu,\"conn\":%llu}}",
                      kTransferPid,
                      static_cast<unsigned long long>(conn.producer()->id()),
                      name.c_str(), static_cast<unsigned long long>(id), ts,
                      static_cast<unsigned long long>(c),
                      static_cast<unsigned long long>(conn.id()));
        emit(buf);
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":%d,\"tid\":%llu,"
                      "\"name\":\"%s\",\"cat\":\"transfer\",\"id\":%llu,"
                      "\"ts\":%.3f}",
                      kTransferPid,
                      static_cast<unsigned long long>(conn.consumer()->id()),
                      name.c_str(), static_cast<unsigned long long>(id),
                      ts + 1.0);
        emit(buf);
      });
}

}  // namespace liberty::obs
