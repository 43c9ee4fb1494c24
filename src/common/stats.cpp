#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace nocdvfs::common {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::sample_variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void TimeWeightedAverage::set(double t, double value) noexcept {
  if (!started_) {
    started_ = true;
    t0_ = t;
  } else if (t > last_t_) {
    integral_ += last_v_ * (t - last_t_);
  }
  last_t_ = t;
  last_v_ = value;
}

double TimeWeightedAverage::average(double t_end) const noexcept {
  if (!started_ || t_end <= t0_) return started_ ? last_v_ : 0.0;
  double integral = integral_;
  if (t_end > last_t_) integral += last_v_ * (t_end - last_t_);
  return integral / (t_end - t0_);
}

}  // namespace nocdvfs::common
