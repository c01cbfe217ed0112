// Spans and clocks of the benchmark.
//
// Every call the benchmark makes into a layer's public function runs inside a
// Stage: the stage always adds its duration to the operation's per-layer
// totals (two clock reads), and when tracing is on it also records a span.
// Spans are kept in memory and written out once, when the run ends.
#pragma once

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Host seconds on the steady clock, counted from the first call.
[[nodiscard]] double now_s();
/// Process CPU seconds, user + system, all threads.
[[nodiscard]] double cpu_s();
/// Resident high-water mark of the process, in MiB.
[[nodiscard]] double peak_rss_mb();

struct Span {
  std::string name;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  double begin = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Open a span under the innermost open one; -1 when tracing is off.
  int open(const std::string& name);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Self time (duration minus the time its children cover) summed by
  /// span name, over the subtree rooted at span `root`.
  [[nodiscard]] std::map<std::string, double> self_times(int root) const;
  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  void write_chrome(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Scoped span that closes itself.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Time `fn` as layer stage `name`: its seconds are added to
/// `totals[name]`, and a span is recorded when tracing is on.
template <typename Fn>
auto stage(Tracer& tracer, std::map<std::string, double>& totals,
           const std::string& name, Fn&& fn) {
  struct Timed {
    Tracer& tracer;
    std::map<std::string, double>& totals;
    const std::string& name;
    double t0;
    int id;
    ~Timed() {
      tracer.close(id);
      totals[name] += now_s() - t0;
    }
  } timed{tracer, totals, name, now_s(), tracer.open(name)};
  return fn();
}

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
