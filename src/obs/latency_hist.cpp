#include "obs/latency_hist.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace nocdvfs::obs {

namespace {

constexpr std::size_t kExact = LatencyHistogram::kSubBuckets;  ///< 0..7 exact

/// The one quantile routine: `bucket(k)` is the k-th of `n` buckets as an
/// (index, count) pair, in ascending index order. Walks to the bucket
/// holding the rank-th smallest sample, then interpolates by rank inside
/// it as if its samples sat evenly across the bucket's values. The extreme
/// ranks are the exact observed min and max.
template <class BucketAt>
std::uint64_t walk_quantile(std::uint64_t count, std::uint64_t min, std::uint64_t max,
                            std::size_t n, BucketAt bucket, double q) noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  if (rank == 1) return min;
  if (rank >= count) return max;
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto [index, in_bucket] = bucket(k);
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    const std::uint64_t lo = LatencyHistogram::bucket_lo(index);
    const std::uint64_t span = LatencyHistogram::bucket_hi(index) - lo;  // width - 1
    const double frac = (static_cast<double>(rank - cum) - 0.5) / static_cast<double>(in_bucket);
    // (span + 1) * frac rounds to at most span + 1 in double; keep it inside.
    const double offset = std::floor((static_cast<double>(span) + 1.0) * frac);
    const std::uint64_t v = lo + std::min(span, static_cast<std::uint64_t>(offset));
    return std::clamp(v, min, max);
  }
  return max;
}

}  // namespace

std::size_t LatencyHistogram::bucket_index(std::uint64_t v) noexcept {
  if (v < kExact) return static_cast<std::size_t>(v);
  const int k = std::bit_width(v) - 1;  // >= 3
  const std::size_t sub = static_cast<std::size_t>(v >> (k - 3)) & (kSubBuckets - 1);
  return kSubBuckets * static_cast<std::size_t>(k - 2) + sub;
}

std::uint64_t LatencyHistogram::bucket_lo(std::size_t i) noexcept {
  if (i < kExact) return i;
  const std::size_t k = i / kSubBuckets + 2;
  return (kSubBuckets + i % kSubBuckets) << (k - 3);
}

std::uint64_t LatencyHistogram::bucket_hi(std::size_t i) noexcept {
  if (i < kExact) return i;
  const std::size_t k = i / kSubBuckets + 2;
  // The last bucket's hi is exactly UINT64_MAX: lo + (2^(k-3) - 1).
  return bucket_lo(i) + ((1ULL << (k - 3)) - 1);
}

void LatencyHistogram::record(std::uint64_t v) noexcept {
  ++counts_[bucket_index(v)];
  ++count_;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t LatencyHistogram::quantile(double q) const noexcept {
  return walk_quantile(
      count_, min(), max(), kNumBuckets,
      [this](std::size_t k) { return std::pair<std::size_t, std::uint64_t>{k, counts_[k]}; }, q);
}

HistogramSnapshot LatencyHistogram::snapshot(std::string label) const {
  HistogramSnapshot s;
  s.label = std::move(label);
  s.count = count_;
  s.min = min();
  s.max = max();
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (counts_[i] == 0) continue;
    s.bucket_index.push_back(static_cast<std::uint32_t>(i));
    s.bucket_count.push_back(counts_[i]);
  }
  return s;
}

std::uint64_t snapshot_quantile(const HistogramSnapshot& s, double q) noexcept {
  return walk_quantile(
      s.count, s.min, s.max, s.bucket_index.size(),
      [&s](std::size_t k) {
        return std::pair<std::size_t, std::uint64_t>{s.bucket_index[k], s.bucket_count[k]};
      },
      q);
}

}  // namespace nocdvfs::obs
