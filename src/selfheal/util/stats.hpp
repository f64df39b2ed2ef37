// Streaming statistics and histograms used by the simulators and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace selfheal::util {

/// Welford's online algorithm: numerically stable running mean/variance.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_ || count_ == 1) min_ = x;
    if (x > max_ || count_ == 1) max_ = x;
    sum_ += x;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples are counted
/// explicitly as underflow (x < lo) or overflow (x >= hi) rather than
/// clamped into the edge buckets, so the range misconfiguration that
/// would otherwise silently skew the edge buckets is observable.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  /// Every observation ever added, including under/overflow.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t in_range() const noexcept {
    return total_ - underflow_ - overflow_;
  }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] double bucket_lo(std::size_t i) const noexcept;
  /// Approximate quantile (q in [0,1]) from bucket midpoints; underflow
  /// mass reports lo and overflow mass reports hi.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Renders an ASCII bar chart, one line per bucket (plus under/overflow
  /// lines when nonzero).
  [[nodiscard]] std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace selfheal::util
