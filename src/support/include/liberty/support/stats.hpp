// Statistics collection shared by every component library.
//
// Each module owns a StatSet; the simulator aggregates them for reporting.
// Counters and histograms are deliberately simple value types so that a
// module can update them on the hot path without indirection.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace liberty {

/// Monotonically increasing event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept { value_ += by; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Running scalar statistic: count, sum, min, max, mean.
class Accumulator {
 public:
  void add(double x) noexcept {
    ++count_;
    sum_ += x;
    min_ = count_ == 1 ? x : std::min(min_, x);
    max_ = count_ == 1 ? x : std::max(max_, x);
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  void reset() noexcept { *this = Accumulator(); }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width-bucket histogram over [0, bucket_width * bucket_count), with
/// an overflow bucket.  Used for latency and occupancy distributions.
class Histogram {
 public:
  explicit Histogram(std::size_t buckets = 64, double width = 1.0)
      : width_(width), counts_(buckets + 1, 0) {}

  void add(double x) noexcept {
    acc_.add(x);
    auto idx = x < 0 ? std::size_t{0}
                     : static_cast<std::size_t>(x / width_);
    counts_[std::min(idx, counts_.size() - 1)]++;
  }

  [[nodiscard]] const Accumulator& summary() const noexcept { return acc_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return counts_.at(i);
  }
  [[nodiscard]] std::size_t buckets() const noexcept { return counts_.size(); }
  [[nodiscard]] double bucket_width() const noexcept { return width_; }

  /// Value below which `q` (clamped to 0..1) of the samples fall,
  /// estimated as the upper edge of the bucket containing the ceil(q*n)-th
  /// sample.  An empty histogram and q <= 0 both report 0; q = 1 reports
  /// the upper edge of the last occupied bucket (samples beyond the last
  /// regular bucket land in the overflow bucket, whose upper edge is
  /// buckets() * bucket_width()).
  [[nodiscard]] double quantile(double q) const noexcept {
    const std::uint64_t n = acc_.count();
    if (n == 0 || q <= 0.0) return 0.0;
    if (q > 1.0) q = 1.0;
    // ceil without <cmath>: the rank of the sample we must reach.
    auto target = static_cast<std::uint64_t>(q * static_cast<double>(n));
    if (static_cast<double>(target) < q * static_cast<double>(n)) ++target;
    if (target == 0) target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= target) return static_cast<double>(i + 1) * width_;
    }
    return static_cast<double>(counts_.size()) * width_;
  }

 private:
  double width_;
  Accumulator acc_;
  std::vector<std::uint64_t> counts_;
};

/// Named collection of statistics owned by a module instance.
class StatSet {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Accumulator& accumulator(const std::string& name) { return accs_[name]; }
  Histogram& histogram(const std::string& name, std::size_t buckets = 64,
                       double width = 1.0) {
    auto it = hists_.find(name);
    if (it == hists_.end()) {
      it = hists_.emplace(name, Histogram(buckets, width)).first;
    }
    return it->second;
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }

  /// Resolve-once handles for hot-path updates.  `counter()` et al. walk a
  /// string-keyed map on every call; modules that bump the same statistic
  /// every cycle cache the returned pointer instead.  Map nodes are stable
  /// for the StatSet's lifetime, so the pointer never dangles.  Binding
  /// happens on first *use* (not at construction) so the entry appears in
  /// dumps at exactly the same point as with uncached lookups.
  void bind(Counter*& slot, const std::string& name) {
    if (slot == nullptr) slot = &counter(name);
  }
  void bind(Accumulator*& slot, const std::string& name) {
    if (slot == nullptr) slot = &accumulator(name);
  }
  void bind(Histogram*& slot, const std::string& name,
            std::size_t buckets = 64, double width = 1.0) {
    if (slot == nullptr) slot = &histogram(name, buckets, width);
  }
  [[nodiscard]] const std::map<std::string, Accumulator>& accumulators()
      const {
    return accs_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return hists_;
  }

  /// Counter value or zero when absent (reporting convenience).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }

  void dump(std::ostream& os, const std::string& prefix) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Accumulator> accs_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace liberty
