#pragma once

/// \file latency_hist.hpp
/// Fixed-memory streaming latency histogram (HDR-style): log2 buckets with
/// eight sub-buckets per octave, over unsigned integer values (picoseconds
/// for delays — exact, since packet timestamps are integer ps — or raw
/// cycle counts for latencies). It is the simulator's only delay
/// histogram: every run records every measured packet into it, and the
/// headline p50/p95/p99 are read from it.
///
/// Bucket scheme: values 0..7 get exact buckets; every other value v with
/// k = floor(log2 v) >= 3 lands in one of the eight equal sub-buckets
/// [(8+s)*2^(k-3), (9+s)*2^(k-3)), s = 0..7 — index 8(k-2) + s. 496
/// buckets cover the full uint64 range in ~4 KiB, and a bucket is never
/// wider than 1/8 of its lower bound. Counts themselves are exact: the
/// quantile walk uses the same rank = ceil(q*n) the sorted-array oracle
/// uses, so it lands in precisely the bucket that holds the oracle's
/// value, and then interpolates linearly by rank inside that bucket.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nocdvfs::obs {

/// Serializable view of a LatencyHistogram (sparse: only non-empty
/// buckets, ascending), embedded in the `.nocobs` timeline so
/// `nocdvfs_report percentiles` can re-derive quantiles offline.
struct HistogramSnapshot {
  std::string label;           ///< e.g. "delay_ps", "island3_delay_ps", "hops5_delay_ps"
  std::uint64_t count = 0;
  std::uint64_t min = 0;       ///< exact observed extremes (raw units)
  std::uint64_t max = 0;
  std::vector<std::uint32_t> bucket_index;
  std::vector<std::uint64_t> bucket_count;
};

class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBuckets = 8;  ///< per octave
  static constexpr std::size_t kNumBuckets = 496;

  /// v < 8 -> v, else 8(k-2) + s for k = floor(log2 v), s = the three bits
  /// below the leading one.
  static std::size_t bucket_index(std::uint64_t v) noexcept;
  /// Inclusive lower bound of bucket i (i < kNumBuckets).
  static std::uint64_t bucket_lo(std::size_t i) noexcept;
  /// Inclusive upper bound of bucket i (i < kNumBuckets).
  static std::uint64_t bucket_hi(std::size_t i) noexcept;

  void record(std::uint64_t v) noexcept;
  void merge(const LatencyHistogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return count_ ? max_ : 0; }

  /// Quantile q in [0, 1] by exact-count rank walk (rank = ceil(q*n), at
  /// least 1) to the bucket holding the rank-th smallest sample, linear
  /// interpolation by rank inside it, clamped to the observed [min, max]:
  /// quantile(1.0) is the exact maximum and every quantile lies in the
  /// bucket of the exact order statistic.
  std::uint64_t quantile(double q) const noexcept;

  HistogramSnapshot snapshot(std::string label) const;

 private:
  std::uint64_t counts_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

/// Quantile over a serialized snapshot, same routine as
/// LatencyHistogram::quantile (used by `nocdvfs_report percentiles`). The
/// snapshot must be well formed: indices strictly ascending and below
/// kNumBuckets, counts summing to `count`, min <= max (the `.nocobs`
/// reader rejects any other).
std::uint64_t snapshot_quantile(const HistogramSnapshot& s, double q) noexcept;

}  // namespace nocdvfs::obs
