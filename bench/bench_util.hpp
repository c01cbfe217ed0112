// Shared helpers for the experiment harness (one binary per experiment in
// DESIGN.md; EXPERIMENTS.md records the outputs).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "liberty/ccl/ccl.hpp"
#include "liberty/core/lss/elaborator.hpp"
#include "liberty/core/registry.hpp"
#include "liberty/core/simulator.hpp"
#include "liberty/mpl/mpl.hpp"
#include "liberty/nil/nil.hpp"
#include "liberty/pcl/pcl.hpp"
#include "liberty/upl/upl.hpp"

namespace liberty::bench {

/// Registry with every component library.
inline core::ModuleRegistry& registry() {
  static core::ModuleRegistry r = [] {
    core::ModuleRegistry reg;
    pcl::register_pcl(reg);
    upl::register_upl(reg);
    ccl::register_ccl(reg);
    mpl::register_mpl(reg);
    nil::register_nil(reg);
    return reg;
  }();
  return r;
}

/// One column of a scheduler comparison matrix.
struct SchedulerSpec {
  std::string label;
  core::SchedulerKind kind;
};

/// The standard comparison matrix: dynamic baseline, static sequential.
inline std::vector<SchedulerSpec> scheduler_matrix() {
  return {{"dynamic", core::SchedulerKind::Dynamic},
          {"static", core::SchedulerKind::Static}};
}

/// Wall-clock seconds for a callable.
template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Markdown-style table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void print() const {
    auto line = [](const std::vector<std::string>& cells) {
      std::printf("|");
      for (const auto& c : cells) std::printf(" %-14s |", c.c_str());
      std::printf("\n");
    };
    line(headers_);
    std::printf("|");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%s|", std::string(16, '-').c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}
inline std::string fmt(std::uint64_t v) { return std::to_string(v); }

/// Tiny streaming JSON writer for the BENCH_*.json artifacts.  Handles
/// comma placement; callers balance begin/end themselves.
class JsonWriter {
 public:
  explicit JsonWriter(FILE* out) : out_(out) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array(const char* key = nullptr) { open('[', key); }
  void end_array() { close(']'); }

  void field(const char* key, const std::string& v) {
    prefix(key);
    std::fprintf(out_, "\"%s\"", escaped(v).c_str());
  }
  void field(const char* key, const char* v) { field(key, std::string(v)); }
  void field(const char* key, double v) {
    prefix(key);
    std::fprintf(out_, "%.6g", v);
  }
  void field(const char* key, std::uint64_t v) {
    prefix(key);
    std::fprintf(out_, "%llu", static_cast<unsigned long long>(v));
  }
  void field(const char* key, unsigned v) {
    field(key, static_cast<std::uint64_t>(v));
  }

  /// Begin an object as an element/value (for arrays of objects).
  void object(const char* key = nullptr) { open('{', key); }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  void prefix(const char* key) {
    if (need_comma_) std::fprintf(out_, ",");
    std::fprintf(out_, "\n%*s", static_cast<int>(2 * depth_), "");
    if (key != nullptr) std::fprintf(out_, "\"%s\": ", key);
    need_comma_ = true;
  }
  void open(char bracket, const char* key = nullptr) {
    if (depth_ > 0) prefix(key);
    std::fprintf(out_, "%c", bracket);
    ++depth_;
    need_comma_ = false;
  }
  void close(char bracket) {
    --depth_;
    std::fprintf(out_, "\n%*s%c", static_cast<int>(2 * depth_), "", bracket);
    need_comma_ = true;
    if (depth_ == 0) std::fprintf(out_, "\n");
  }

  FILE* out_;
  std::size_t depth_ = 0;
  bool need_comma_ = false;
};

/// Snapshot of a scheduler's introspection counters (visit_counters),
/// taken after a run so it can be emitted into a JSON record later.
inline std::vector<std::pair<std::string, std::uint64_t>> kernel_counters(
    const core::SchedulerBase& sched) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  sched.visit_counters([&out](std::string_view name, std::uint64_t v) {
    out.emplace_back(std::string(name), v);
  });
  return out;
}

/// Emit counters captured by kernel_counters() into the current JSON
/// object, prefixed "kernel." to keep names collision-free.
inline void emit_kernel_counters(
    JsonWriter& json,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  for (const auto& [name, v] : counters) {
    json.field(("kernel." + name).c_str(), v);
  }
}

}  // namespace liberty::bench
