#include "liberty/obs/metrics.hpp"

#include <cstdio>
#include <string>

#include "liberty/obs/json.hpp"
#include "liberty/obs/profiler.hpp"

namespace liberty::obs {

std::string current_git_rev() {
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  std::string rev;
  if (std::fgets(buf, sizeof buf, pipe) != nullptr) rev = buf;
  const int status = ::pclose(pipe);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  if (status != 0 || rev.empty()) return "unknown";
  return rev;
}

void MetricsRegistry::collect_modules(const liberty::core::Netlist& netlist) {
  for (const auto& mod : netlist.modules()) {
    const std::string base = "module." + mod->name() + '.';
    const liberty::StatSet& stats = mod->stats();
    for (const auto& [name, c] : stats.counters()) {
      add_counter(base + name, c.value());
    }
    for (const auto& [name, a] : stats.accumulators()) {
      Summary s;
      s.count = a.count();
      s.mean = a.mean();
      s.min = a.min();
      s.max = a.max();
      add_summary(base + name, s);
    }
    for (const auto& [name, h] : stats.histograms()) {
      const liberty::Accumulator& a = h.summary();
      Summary s;
      s.count = a.count();
      s.mean = a.mean();
      s.min = a.min();
      s.max = a.max();
      s.has_quantiles = true;
      s.p50 = h.quantile(0.5);
      s.p95 = h.quantile(0.95);
      s.p99 = h.quantile(0.99);
      add_summary(base + name, s);
    }
  }
}

void MetricsRegistry::collect_scheduler(
    const liberty::core::SchedulerBase& sched) {
  sched.visit_counters([this](std::string_view name, std::uint64_t value) {
    add_counter("scheduler." + std::string(name), value);
  });
}

void MetricsRegistry::collect_profile(const CycleProfiler& prof,
                                      const liberty::core::Netlist* netlist) {
  add_counter("profile.cycles", prof.cycles());
  add_scalar("profile.total_seconds", prof.total_seconds());
  for (std::size_t i = 0; i < liberty::core::kSchedPhaseCount; ++i) {
    const auto phase = static_cast<liberty::core::SchedPhase>(i);
    const std::string base =
        "profile.phase." + std::string(liberty::core::phase_name(phase));
    add_scalar(base + ".seconds", prof.phases()[i].seconds);
    add_counter(base + ".count", prof.phases()[i].count);
  }

  const auto& reacts = prof.module_reacts();
  const auto& seconds = prof.module_seconds();
  for (std::size_t id = 0; id < reacts.size(); ++id) {
    if (reacts[id] == 0 && seconds[id] == 0.0) continue;
    std::string who;
    if (netlist != nullptr && id < netlist->modules().size()) {
      who = netlist->modules()[id]->name();
    } else {
      who = "id" + std::to_string(id);
    }
    const std::string base = "profile.module." + who;
    add_counter(base + ".reacts", reacts[id]);
    add_scalar(base + ".react_seconds", seconds[id]);
  }

}

void MetricsRegistry::write_json(std::ostream& os, const RunMeta& meta) const {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", kMetricsSchemaName);
  w.field("schema_version", static_cast<std::uint64_t>(kMetricsSchemaVersion));
  w.begin_object("meta");
  w.field("tool", meta.tool);
  w.field("spec", meta.spec);
  w.field("scheduler", meta.scheduler);
  w.field("seed", meta.seed);
  w.field("cycles", meta.cycles);
  w.field("git_rev", meta.git_rev);
  w.end_object();
  w.begin_object("counters");
  for (const auto& [name, v] : counters_) w.field(name.c_str(), v);
  w.end_object();
  w.begin_object("scalars");
  for (const auto& [name, v] : scalars_) w.field(name.c_str(), v);
  w.end_object();
  w.begin_object("summaries");
  for (const auto& [name, s] : summaries_) {
    w.begin_object(name.c_str());
    w.field("count", s.count);
    w.field("mean", s.mean);
    w.field("min", s.min);
    w.field("max", s.max);
    if (s.has_quantiles) {
      w.field("p50", s.p50);
      w.field("p95", s.p95);
      w.field("p99", s.p99);
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

namespace {

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void csv_row(std::ostream& os, const char* section, const std::string& name,
             const char* field, const std::string& value) {
  os << section << ',' << csv_quote(name) << ',' << field << ','
     << csv_quote(value) << '\n';
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void MetricsRegistry::write_csv(std::ostream& os, const RunMeta& meta) const {
  os << "section,name,field,value\n";
  csv_row(os, "meta", "schema", "value", kMetricsSchemaName);
  csv_row(os, "meta", "schema_version", "value",
          std::to_string(kMetricsSchemaVersion));
  csv_row(os, "meta", "tool", "value", meta.tool);
  csv_row(os, "meta", "spec", "value", meta.spec);
  csv_row(os, "meta", "scheduler", "value", meta.scheduler);
  csv_row(os, "meta", "seed", "value", std::to_string(meta.seed));
  csv_row(os, "meta", "cycles", "value", std::to_string(meta.cycles));
  csv_row(os, "meta", "git_rev", "value", meta.git_rev);
  for (const auto& [name, v] : counters_) {
    csv_row(os, "counter", name, "value", std::to_string(v));
  }
  for (const auto& [name, v] : scalars_) {
    csv_row(os, "scalar", name, "value", fmt_double(v));
  }
  for (const auto& [name, s] : summaries_) {
    csv_row(os, "summary", name, "count", std::to_string(s.count));
    csv_row(os, "summary", name, "mean", fmt_double(s.mean));
    csv_row(os, "summary", name, "min", fmt_double(s.min));
    csv_row(os, "summary", name, "max", fmt_double(s.max));
    if (s.has_quantiles) {
      csv_row(os, "summary", name, "p50", fmt_double(s.p50));
      csv_row(os, "summary", name, "p95", fmt_double(s.p95));
      csv_row(os, "summary", name, "p99", fmt_double(s.p99));
    }
  }
}

}  // namespace liberty::obs
