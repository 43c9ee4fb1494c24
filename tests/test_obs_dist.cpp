// Latency-distribution and flight-recorder tests: histogram bucket math
// against closed-form bounds, streaming percentiles against an exact
// sorted-array oracle, snapshot round-trips, sampler delta conservation
// across a mid-window retune, and — end to end — sampled packet flights
// from a real run reconstructing contiguous inject→eject paths whose hop
// count matches the routing engine's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/latency_hist.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "sim/scenario.hpp"

namespace nocdvfs {
namespace {

namespace fs = std::filesystem;

std::string temp_base(const std::string& name) {
  return (fs::temp_directory_path() / ("nocdvfs_test_obs_dist_" + name)).string();
}

// ---------------------------------------------------------------------------
// Bucket math
// ---------------------------------------------------------------------------

TEST(LatencyHistogramBuckets, SmallValuesAreExact) {
  using H = obs::LatencyHistogram;
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(H::bucket_index(v), v);
    EXPECT_EQ(H::bucket_lo(v), v);
    EXPECT_EQ(H::bucket_hi(v), v);
  }
  EXPECT_EQ(H::bucket_index(8), 8u);
  EXPECT_EQ(H::bucket_index(15), 15u);  // 8..15 are still one value each
  EXPECT_EQ(H::bucket_index(~0ULL), H::kNumBuckets - 1);
  EXPECT_EQ(H::bucket_hi(H::kNumBuckets - 1), ~0ULL);
}

TEST(LatencyHistogramBuckets, IndexLoHiRoundTrip) {
  using H = obs::LatencyHistogram;
  // Octave boundaries and every sub-bucket edge across the whole range.
  std::vector<std::uint64_t> probes = {0, 1, 7, 8, 9, 100, 1000, 12345};
  for (int k = 3; k < 64; ++k) {
    const std::uint64_t p = 1ULL << k;
    const std::uint64_t step = p >> 3;  // sub-bucket width in this octave
    probes.push_back(p - 1);            // last value of the previous octave
    for (std::uint64_t s = 0; s < 8; ++s) {
      probes.push_back(p + s * step);             // first value of sub-bucket s
      probes.push_back(p + (s + 1) * step - 1);   // last value of sub-bucket s
    }
  }
  probes.push_back(~0ULL);
  for (const std::uint64_t v : probes) {
    const std::size_t i = H::bucket_index(v);
    ASSERT_LT(i, H::kNumBuckets) << v;
    EXPECT_GE(v, H::bucket_lo(i)) << v;
    EXPECT_LE(v, H::bucket_hi(i)) << v;
    // A bucket is never wider than 1/8 of its lower bound (the error bound
    // every percentile claim rests on).
    const std::uint64_t width = H::bucket_hi(i) - H::bucket_lo(i) + 1;
    EXPECT_LE(width, std::max<std::uint64_t>(1, H::bucket_lo(i) / 8)) << v;
  }
  // Buckets tile the range: each one starts right after the previous ends.
  for (std::size_t i = 1; i < H::kNumBuckets; ++i) {
    EXPECT_EQ(H::bucket_lo(i), H::bucket_hi(i - 1) + 1) << i;
  }
}

TEST(LatencyHistogramBuckets, IndicesAreMonotone) {
  using H = obs::LatencyHistogram;
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const std::size_t i = H::bucket_index(v);
    EXPECT_GE(i, prev) << v;
    prev = i;
  }
}

// ---------------------------------------------------------------------------
// Percentiles vs the exact sorted-array oracle
// ---------------------------------------------------------------------------

/// Deterministic xorshift so the test never depends on libc rand.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

TEST(LatencyHistogramQuantiles, WithinOneBucketOfSortedOracle) {
  using H = obs::LatencyHistogram;
  obs::LatencyHistogram hist;
  std::vector<std::uint64_t> oracle;
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  // Mixed regimes: small exact values, mid-range, and heavy-tail spikes —
  // the shape of a real delay distribution.
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = next_rand(state);
    std::uint64_t v = r % 1000;                       // bulk
    if (i % 17 == 0) v = 1000 + r % 100000;           // congested tail
    if (i % 113 == 0) v = 100000 + r % 10000000;      // spikes
    hist.record(v);
    oracle.push_back(v);
  }
  std::sort(oracle.begin(), oracle.end());
  ASSERT_EQ(hist.count(), oracle.size());
  EXPECT_EQ(hist.min(), oracle.front());
  EXPECT_EQ(hist.max(), oracle.back());

  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    // Same rank convention as the histogram walk: rank = max(1, ceil(q*n)).
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(oracle.size()))));
    const std::uint64_t exact = oracle[rank - 1];
    const std::uint64_t approx = hist.quantile(q);
    // The walk lands in the bucket that holds the exact order statistic,
    // so the estimate is within that one bucket's width.
    const std::size_t bucket = H::bucket_index(exact);
    const std::uint64_t lo =
        std::max(H::bucket_lo(bucket), hist.min());
    const std::uint64_t hi = std::min(H::bucket_hi(bucket), hist.max());
    EXPECT_GE(approx, lo) << "q=" << q;
    EXPECT_LE(approx, hi) << "q=" << q;
    EXPECT_LE(approx >= exact ? approx - exact : exact - approx,
              H::bucket_hi(bucket) - H::bucket_lo(bucket))
        << "q=" << q;
  }
  EXPECT_EQ(hist.quantile(1.0), oracle.back());  // exact by clamping
}

TEST(LatencyHistogramQuantiles, EmptyAndSingletonEdgeCases) {
  obs::LatencyHistogram hist;
  EXPECT_TRUE(hist.empty());
  EXPECT_EQ(hist.quantile(0.5), 0u);
  hist.record(42);
  EXPECT_EQ(hist.min(), 42u);
  EXPECT_EQ(hist.max(), 42u);
  for (const double q : {0.0, 0.5, 1.0}) EXPECT_EQ(hist.quantile(q), 42u);
}

TEST(LatencyHistogramQuantiles, MergeMatchesUnion) {
  obs::LatencyHistogram a, b, all;
  std::uint64_t state = 0xDEADBEEFCAFEF00DULL;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = next_rand(state) % 100000;
    (i % 2 == 0 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q));
  }
}

TEST(LatencyHistogramSnapshot, QuantilesSurviveSerialization) {
  obs::LatencyHistogram hist;
  std::uint64_t state = 0x123456789ABCDEFULL;
  for (int i = 0; i < 3000; ++i) hist.record(next_rand(state) % 1000000);
  const obs::HistogramSnapshot snap = hist.snapshot("delay_ps");
  EXPECT_EQ(snap.label, "delay_ps");
  EXPECT_EQ(snap.count, hist.count());
  EXPECT_EQ(snap.min, hist.min());
  EXPECT_EQ(snap.max, hist.max());
  ASSERT_EQ(snap.bucket_index.size(), snap.bucket_count.size());
  // Sparse: only non-empty buckets, in ascending index order.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < snap.bucket_index.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(snap.bucket_index[i - 1], snap.bucket_index[i]);
    }
    EXPECT_GT(snap.bucket_count[i], 0u);
    total += snap.bucket_count[i];
  }
  EXPECT_EQ(total, hist.count());
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(obs::snapshot_quantile(snap, q), hist.quantile(q));
  }
}

// ---------------------------------------------------------------------------
// Sampler delta conservation across a mid-window retune
// ---------------------------------------------------------------------------

/// A DVFS retune changes how fast an island's counters advance, and the
/// retune lands *between* two samples of the same telemetry window. The
/// sampler must still conserve: column sums equal the live counters minus
/// the construction baseline, whatever the per-window increments did.
TEST(TelemetrySampler, DeltasConserveAcrossMidWindowRetune) {
  std::vector<std::uint64_t> live = {1000, 2000};  // two islands, warm baseline
  obs::TelemetryRegistry reg;
  reg.register_counter("flits", obs::MetricScope::Island, 2,
                       [&](int e) { return live[static_cast<std::size_t>(e)]; });
  obs::TelemetrySampler sampler(reg);
  const std::vector<std::uint64_t> baseline = live;

  // Window 1: island 0 runs fast, island 1 slow.
  live[0] += 500;
  live[1] += 50;
  sampler.sample();
  // Mid-window retune: island 0 throttles, island 1 boosts — the next
  // window's deltas have a completely different split.
  live[0] += 3;
  live[1] += 700;
  sampler.sample();
  // A stall window: island 0 contributes nothing at all.
  live[1] += 123;
  sampler.sample();

  obs::Timeline tl;
  sampler.finish(tl);
  ASSERT_EQ(tl.series.size(), 1u);
  const obs::MetricSeries& s = tl.series[0];
  ASSERT_EQ(s.entities, 2);
  // Per-window deltas reflect the retune...
  EXPECT_EQ(s.count_at(0, 0), 500u);
  EXPECT_EQ(s.count_at(1, 0), 3u);
  EXPECT_EQ(s.count_at(2, 0), 0u);
  EXPECT_EQ(s.count_at(1, 1), 700u);
  // ...and the conservation law holds per island regardless.
  for (int e = 0; e < 2; ++e) {
    EXPECT_EQ(s.entity_total(e),
              live[static_cast<std::size_t>(e)] - baseline[static_cast<std::size_t>(e)])
        << "island " << e;
  }
}

// ---------------------------------------------------------------------------
// Flight recorder: sampling determinism
// ---------------------------------------------------------------------------

TEST(FlightRecorder, SamplingIsDeterministicInTheId) {
  obs::FlightRecorder::Config cfg;
  cfg.rate = 64;
  const obs::FlightRecorder rec_a(cfg), rec_b(cfg);
  std::size_t sampled = 0;
  for (std::uint64_t id = 0; id < 100000; ++id) {
    EXPECT_EQ(rec_a.sampled(id), rec_b.sampled(id));
    if (rec_a.sampled(id)) ++sampled;
  }
  // splitmix64 spreads ids uniformly: 1-in-64 within a loose band.
  EXPECT_GT(sampled, 100000 / 64 / 2);
  EXPECT_LT(sampled, 100000 / 64 * 2);

  cfg.rate = 1;
  const obs::FlightRecorder all(cfg);
  for (std::uint64_t id = 0; id < 100; ++id) EXPECT_TRUE(all.sampled(id));

  cfg.rate = 64;
  cfg.seed = 7;
  const obs::FlightRecorder reseeded(cfg);
  bool any_difference = false;
  for (std::uint64_t id = 0; id < 10000 && !any_difference; ++id) {
    any_difference = reseeded.sampled(id) != rec_a.sampled(id);
  }
  EXPECT_TRUE(any_difference);  // the seed actually enters the hash
}

// ---------------------------------------------------------------------------
// End to end: distributions and flights from a real run
// ---------------------------------------------------------------------------

sim::Scenario small_base() {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.lambda = 0.15;
  s.policy.policy = sim::Policy::Rmsd;
  s.phases.warmup_node_cycles = 20000;
  s.phases.measure_node_cycles = 20000;
  s.phases.max_warmup_node_cycles = 40000;
  return s;
}

TEST(DelayDist, MatchesHeadlineStatsAndNestsSlices) {
  const sim::RunResult r = sim::run(small_base());
  const sim::DelayDistResult::Slice& d = r.delay_dist.delay_ns;
  ASSERT_GT(d.count, 0u);
  EXPECT_EQ(d.count, r.packets_delivered);

  // One histogram: the headline percentiles and extremes are the slice's.
  EXPECT_EQ(d.min, r.min_delay_ns);
  EXPECT_EQ(d.max, r.max_delay_ns);
  EXPECT_EQ(d.p50, r.p50_delay_ns);
  EXPECT_EQ(d.p95, r.p95_delay_ns);
  EXPECT_EQ(d.p99, r.p99_delay_ns);

  // Quantiles are ordered and bracketed by the extremes.
  EXPECT_LE(d.min, d.p50);
  EXPECT_LE(d.p50, d.p90);
  EXPECT_LE(d.p90, d.p95);
  EXPECT_LE(d.p95, d.p99);
  EXPECT_LE(d.p99, d.p999);
  EXPECT_LE(d.p999, d.max);

  // Island and hop slices partition the global count.
  std::uint64_t island_sum = 0;
  for (const auto& slice : r.delay_dist.island_delay_ns) island_sum += slice.count;
  EXPECT_EQ(island_sum, d.count);
  std::uint64_t hop_sum = 0;
  for (const auto& slice : r.delay_dist.hop_delay_ns) hop_sum += slice.count;
  EXPECT_EQ(hop_sum, d.count);
  // Cycle-latency slice sees the same packets.
  EXPECT_EQ(r.delay_dist.latency_cycles.count, d.count);
  EXPECT_GT(r.delay_dist.latency_cycles.max, 0.0);
}

/// Long paths get their own hop slices: on a 40x40 transpose the longest
/// route is 79 hops, and every hop count up to the longest one seen has a
/// slice (nothing is folded into a last bucket).
TEST(DelayDist, HopSlicesCoverLongPaths) {
  sim::Scenario s;
  s.pattern = "transpose";
  s.network.width = 40;
  s.network.height = 40;
  s.lambda = 0.01;
  s.control_period = 1000;
  s.phases.adaptive_warmup = false;
  s.phases.warmup_node_cycles = 1000;
  s.phases.measure_node_cycles = 3000;
  const sim::RunResult r = sim::run(s);
  EXPECT_GT(r.max_hops, 63u);
  EXPECT_EQ(r.delay_dist.hop_delay_ns.size(), r.max_hops + 1);
  std::uint64_t hop_sum = 0;
  for (const auto& slice : r.delay_dist.hop_delay_ns) hop_sum += slice.count;
  EXPECT_EQ(hop_sum, r.delay_dist.delay_ns.count);
  EXPECT_GT(r.delay_dist.hop_delay_ns.back().count, 0u);
}

/// The network outlives the run that installed a flight recorder on it:
/// stepping it afterwards must not touch the run's (freed) recorder, and
/// the run's stall attribution is switched off again.
TEST(FlightRecorderEndToEnd, NetworkStepsSafelyAfterRun) {
  sim::Scenario s = small_base();
  s.telemetry = "windows";
  s.pkt_trace = "on";
  s.pkt_trace_rate = 1;
  const std::unique_ptr<sim::Simulator> sim = sim::make_simulator(s);
  (void)sim->run(s.phases);
  noc::Network& net = sim->network();
  EXPECT_FALSE(net.router_at(0).stall_tracking());
  for (int c = 0; c < 200; ++c) net.step_island(0, static_cast<common::Picoseconds>(c) * 1000);
  SUCCEED();
}

TEST(FlightRecorderEndToEnd, FlightsReconstructContiguousPaths) {
  sim::Scenario s = small_base();
  s.telemetry = "windows";
  s.pkt_trace = "on";
  s.pkt_trace_rate = 4;
  const std::string base = temp_base("flights");
  s.telemetry_out = base;
  (void)sim::run(s);

  const obs::Timeline tl = obs::read_timeline_binary(base + ".nocobs");
  EXPECT_EQ(tl.version, obs::Timeline::kVersion);
  ASSERT_FALSE(tl.flights.empty());

  obs::FlightRecorder::Config cfg;
  cfg.rate = 4;
  const obs::FlightRecorder reference(cfg);

  const int width = tl.width;
  const auto adjacent = [width](std::int32_t a, std::int32_t b) {
    const int dx = std::abs(a % width - b % width);
    const int dy = std::abs(a / width - b / width);
    return dx + dy == 1;
  };

  std::size_t completed = 0;
  std::vector<std::uint64_t> seen_ids;
  for (const obs::FlightRecord& f : tl.flights) {
    // Only sampled ids are ever recorded, each at most once.
    EXPECT_TRUE(reference.sampled(f.packet_id)) << f.packet_id;
    seen_ids.push_back(f.packet_id);

    ASSERT_FALSE(f.events.empty());
    EXPECT_EQ(f.events.front().stage, obs::FlightStage::Inject);
    EXPECT_EQ(f.events.front().router, -1);
    EXPECT_GE(f.events.front().t_ps, f.create_t_ps);
    for (std::size_t i = 1; i < f.events.size(); ++i) {
      EXPECT_GE(f.events[i].t_ps, f.events[i - 1].t_ps) << "flight " << f.packet_id;
    }
    if (f.events.back().stage != obs::FlightStage::Eject) continue;  // in flight / drop
    if (f.src == f.dst) continue;
    ++completed;

    // Reconstruct the router visit sequence: every visit is the ordered
    // quadruple arrive → route → vc-grant → depart on one router.
    std::vector<std::int32_t> visits;
    int stage_in_visit = -1;  // -1 = between visits
    for (const obs::FlightEvent& ev : f.events) {
      switch (ev.stage) {
        case obs::FlightStage::Inject:
        case obs::FlightStage::CdcCross:
        case obs::FlightStage::Eject:
          break;
        case obs::FlightStage::RouterArrive:
          EXPECT_EQ(stage_in_visit, -1) << "arrive mid-visit, flight " << f.packet_id;
          visits.push_back(ev.router);
          stage_in_visit = 0;
          break;
        case obs::FlightStage::RouteComputed:
          EXPECT_EQ(stage_in_visit, 0);
          EXPECT_EQ(ev.router, visits.back());
          stage_in_visit = 1;
          break;
        case obs::FlightStage::VcGranted:
          EXPECT_EQ(stage_in_visit, 1);
          EXPECT_EQ(ev.router, visits.back());
          stage_in_visit = 2;
          break;
        case obs::FlightStage::RouterDepart:
          EXPECT_EQ(stage_in_visit, 2);
          EXPECT_EQ(ev.router, visits.back());
          stage_in_visit = -1;
          break;
        case obs::FlightStage::Drop:
          ADD_FAILURE() << "drop inside a completed flight";
          break;
      }
    }
    EXPECT_EQ(stage_in_visit, -1) << "journey ended mid-visit";

    // Contiguous inject→eject: starts at the source tile, ends at the
    // destination tile, every step crosses one mesh link, and the visit
    // count is exactly the XY route length (the routing engine's hops).
    ASSERT_FALSE(visits.empty());
    EXPECT_EQ(visits.front(), f.src);
    EXPECT_EQ(visits.back(), f.dst);
    for (std::size_t i = 1; i < visits.size(); ++i) {
      EXPECT_TRUE(adjacent(visits[i - 1], visits[i]))
          << visits[i - 1] << " -> " << visits[i];
    }
    const int manhattan = std::abs(f.src % width - f.dst % width) +
                          std::abs(f.src / width - f.dst / width);
    EXPECT_EQ(static_cast<int>(visits.size()), manhattan + 1);
  }
  EXPECT_GT(completed, 0u);
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_EQ(std::adjacent_find(seen_ids.begin(), seen_ids.end()), seen_ids.end());

  fs::remove(base + ".nocobs");
  fs::remove(base + ".json");
}

// ---------------------------------------------------------------------------
// Scenario validation
// ---------------------------------------------------------------------------

TEST(DelayDistScenario, ValidatesKeys) {
  sim::Scenario s = small_base();
  EXPECT_TRUE(sim::scenario_problem(s).empty());

  // pkt_trace needs the telemetry pipeline (that's where flights go).
  s.pkt_trace = "on";
  EXPECT_FALSE(sim::scenario_problem(s).empty());
  s.telemetry = "windows";
  EXPECT_TRUE(sim::scenario_problem(s).empty());
  s.pkt_trace_rate = 0;
  EXPECT_FALSE(sim::scenario_problem(s).empty());
  s.pkt_trace_rate = 16;
  EXPECT_TRUE(sim::scenario_problem(s).empty());
  s.pkt_trace = "maybe";
  EXPECT_FALSE(sim::scenario_problem(s).empty());
}

}  // namespace
}  // namespace nocdvfs
