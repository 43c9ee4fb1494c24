#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

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

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0) throw std::invalid_argument("Histogram: need at least one bin");
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);  // guard against FP edge at hi_
    ++counts_[idx];
  }
}

void Histogram::reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
  underflow_ = overflow_ = total_ = 0;
}

double Histogram::bin_lo(std::size_t i) const noexcept {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::quantile(double q) const noexcept {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bin_lo(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

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
