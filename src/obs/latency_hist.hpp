#pragma once

/// \file latency_hist.hpp
/// Fixed-memory streaming latency histogram (HDR-style): log2 buckets with
/// two sub-buckets per octave, over unsigned integer values (picoseconds
/// for delays — exact, since packet timestamps are integer ps — or raw
/// cycle counts for latencies).
///
/// Bucket scheme: value 0 and value 1 get exact buckets; every other value
/// v with k = floor(log2 v) >= 1 lands in [2^k, 1.5*2^k) or
/// [1.5*2^k, 2^(k+1)) — index 2k or 2k+1. 128 buckets cover the full
/// uint64 range in ~1 KiB, and a bucket is never wider than 50% of its
/// lower bound, so a quantile read from the histogram is within one
/// bucket width (<= 50% relative error) of the exact order statistic.
/// Counts themselves are exact: the quantile walk uses the same
/// rank = ceil(q*n) the sorted-array oracle uses, so the walk lands in
/// precisely the bucket that contains the oracle's value.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nocdvfs::obs {

/// Serializable view of a LatencyHistogram (sparse: only non-empty
/// buckets), embedded in the `.nocobs` timeline so `nocdvfs_report
/// percentiles` can re-derive quantiles offline.
struct HistogramSnapshot {
  std::string label;           ///< e.g. "delay_ns", "island3", "hops5"
  std::uint64_t count = 0;
  std::uint64_t min = 0;       ///< exact observed extremes (raw units)
  std::uint64_t max = 0;
  std::vector<std::uint32_t> bucket_index;
  std::vector<std::uint64_t> bucket_count;
};

class LatencyHistogram {
 public:
  static constexpr std::size_t kNumBuckets = 128;

  /// 0 -> 0, 1 -> 1, else 2k + (v >= 1.5*2^k) for k = floor(log2 v).
  static std::size_t bucket_index(std::uint64_t v) noexcept;
  /// Inclusive lower bound of bucket i.
  static std::uint64_t bucket_lo(std::size_t i) noexcept;
  /// Inclusive upper bound of bucket i (saturates at UINT64_MAX).
  static std::uint64_t bucket_hi(std::size_t i) noexcept;

  void record(std::uint64_t v) noexcept;
  void merge(const LatencyHistogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return count_ ? max_ : 0; }

  /// Quantile q in [0, 1] by exact-count rank walk (rank = ceil(q*n),
  /// at least 1): returns the inclusive upper bound of the bucket holding
  /// the rank-th smallest sample, clamped to the observed [min, max] — so
  /// quantile(1.0) is the exact maximum and every quantile is within one
  /// bucket width of the exact order statistic.
  std::uint64_t quantile(double q) const noexcept;

  HistogramSnapshot snapshot(std::string label) const;

 private:
  std::uint64_t counts_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

/// Quantile over a serialized snapshot, same semantics as
/// LatencyHistogram::quantile (used by `nocdvfs_report percentiles`).
std::uint64_t snapshot_quantile(const HistogramSnapshot& s, double q) noexcept;

}  // namespace nocdvfs::obs
