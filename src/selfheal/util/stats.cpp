#include "selfheal/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace selfheal::util {

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), bucket_width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / bucket_width_);
  idx = std::min(idx, counts_.size() - 1);
  ++counts_[idx];
}

double Histogram::bucket_lo(std::size_t i) const noexcept {
  return lo_ + bucket_width_ * static_cast<double>(i);
}

double Histogram::quantile(double q) const noexcept {
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cumulative = static_cast<double>(underflow_);
  if (cumulative >= target && underflow_ > 0) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += static_cast<double>(counts_[i]);
    if (cumulative >= target) return bucket_lo(i) + bucket_width_ / 2.0;
  }
  return hi_;
}

std::string Histogram::render(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  if (underflow_ > 0) out << "(-inf, " << lo_ << ") " << underflow_ << "\n";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    out << "[" << bucket_lo(i) << ", " << bucket_lo(i) + bucket_width_ << ") "
        << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  if (overflow_ > 0) out << "[" << hi_ << ", +inf) " << overflow_ << "\n";
  return out.str();
}

}  // namespace selfheal::util
