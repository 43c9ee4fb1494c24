#pragma once

/// \file stats.hpp
/// Streaming statistics used throughout the simulator: Welford running
/// moments, fixed-bin histograms, exponentially weighted moving averages and
/// time-weighted averages (for quantities like "frequency over the
/// measurement interval" that change at irregular instants).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace nocdvfs::common {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  std::uint64_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< population variance
  double sample_variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bin histogram over [lo, hi); samples outside the range land in
/// saturating under/overflow bins. Supports quantile queries, which the
/// metrics layer uses for p95/p99 packet delay.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  void reset() noexcept;

  std::uint64_t count() const noexcept { return total_; }
  std::uint64_t underflow() const noexcept { return underflow_; }
  std::uint64_t overflow() const noexcept { return overflow_; }
  double bin_lo(std::size_t i) const noexcept;

  /// Approximate quantile q in [0,1]; linear interpolation inside the bin.
  /// Returns lo/hi bounds when the mass sits in the under/overflow bins.
  double quantile(double q) const noexcept;

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

/// Time-weighted average of a piecewise-constant signal: call `set(t, v)` at
/// every change instant; `average(t_end)` integrates up to t_end.
class TimeWeightedAverage {
 public:
  void set(double t, double value) noexcept;
  void reset() noexcept { *this = TimeWeightedAverage{}; }
  double average(double t_end) const noexcept;
  bool empty() const noexcept { return !started_; }

 private:
  bool started_ = false;
  double last_t_ = 0.0;
  double last_v_ = 0.0;
  double integral_ = 0.0;
  double t0_ = 0.0;
};

}  // namespace nocdvfs::common
