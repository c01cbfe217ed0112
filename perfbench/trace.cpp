#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "liberty/obs/json.hpp"

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now_s(), 0.0});
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Spans close innermost first; tolerate an out-of-order close anyway.
  const auto it = std::find(stack_.begin(), stack_.end(), id);
  if (it != stack_.end()) stack_.erase(it, stack_.end());
}

std::map<std::string, double> Tracer::self_times(int root) const {
  std::map<std::string, double> out;
  if (root < 0) return out;
  // Children always follow their parent in spans_, so one forward pass
  // marks the subtree and subtracts each child from its parent.
  std::vector<char> in_tree(spans_.size(), 0);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size();
       ++i) {
    const Span& s = spans_[i];
    const bool member =
        static_cast<int>(i) == root ||
        (s.parent >= 0 && in_tree[static_cast<std::size_t>(s.parent)]);
    if (!member) continue;
    in_tree[i] = 1;
    self[i] += s.end - s.begin;
    if (static_cast<int>(i) != root) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.begin;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (in_tree[i]) out[spans_[i].name] += self[i];
  }
  return out;
}

void Tracer::write_chrome(std::ostream& os) const {
  liberty::obs::JsonWriter j(os);
  j.begin_object();
  j.begin_array("traceEvents");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  s.begin * 1e6, (s.end - s.begin) * 1e6, i, s.parent);
    j.element_raw("{\"name\":\"" + liberty::obs::json_escape(s.name) + buf);
  }
  j.end_array();
  j.end_object();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
