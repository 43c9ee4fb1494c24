// Telemetry subsystem tests: registry/sampler semantics, binary timeline
// round-trip, the .nocobs golden bytes and hostile mutations of them,
// Perfetto writer structure, and — the load-bearing part —
// exact conservation between the sampled per-tile series and the
// network's live counters (stall taxonomy included) across mesh, torus,
// faulted, and multi-island scenarios.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc_probe.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "sim/scenario.hpp"

namespace nocdvfs {
namespace {

namespace fs = std::filesystem;

std::string temp_base(const std::string& name) {
  return (fs::temp_directory_path() / ("nocdvfs_test_obs_" + name)).string();
}

// ---------------------------------------------------------------------------
// Registry & sampler
// ---------------------------------------------------------------------------

TEST(TelemetryMode, StringRoundTripAndErrors) {
  using obs::TelemetryMode;
  EXPECT_EQ(obs::telemetry_mode_from_string("off"), TelemetryMode::Off);
  EXPECT_EQ(obs::telemetry_mode_from_string("Windows"), TelemetryMode::Windows);
  EXPECT_EQ(obs::telemetry_mode_from_string("FULL"), TelemetryMode::Full);
  EXPECT_STREQ(obs::to_string(TelemetryMode::Windows), "windows");
  EXPECT_THROW(obs::telemetry_mode_from_string("on"), std::invalid_argument);
  EXPECT_THROW(obs::telemetry_mode_from_string(""), std::invalid_argument);
}

TEST(TelemetryRegistry, RejectsDuplicatesAndBadEntities) {
  obs::TelemetryRegistry reg;
  reg.register_counter("c", obs::MetricScope::Tile, 4, [](int) { return 0ull; });
  EXPECT_THROW(
      reg.register_counter("c", obs::MetricScope::Node, 4, [](int) { return 0ull; }),
      std::invalid_argument);
  EXPECT_THROW(
      reg.register_gauge("g", obs::MetricScope::Tile, 0, [](int) { return 0.0; }),
      std::invalid_argument);
  EXPECT_THROW(
      reg.register_counter("", obs::MetricScope::Tile, 1, [](int) { return 0ull; }),
      std::invalid_argument);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(TelemetrySampler, CounterDeltasSumToLiveValue) {
  std::vector<std::uint64_t> live = {10, 20};  // baseline, taken at construction
  double gauge_value = 1.5;
  obs::TelemetryRegistry reg;
  reg.register_counter("flits", obs::MetricScope::Tile, 2,
                       [&](int e) { return live[static_cast<std::size_t>(e)]; });
  reg.register_gauge("occ", obs::MetricScope::Island, 1, [&](int) { return gauge_value; });
  obs::TelemetrySampler sampler(reg);

  live = {13, 20};
  sampler.sample();  // deltas {3, 0}
  live = {14, 27};
  gauge_value = 2.5;
  sampler.sample();  // deltas {1, 7}

  obs::Timeline tl;
  sampler.finish(tl);
  ASSERT_EQ(tl.series.size(), 2u);
  const obs::MetricSeries& flits = tl.series[0];
  EXPECT_EQ(flits.kind, obs::MetricKind::Counter);
  EXPECT_EQ(flits.count_at(0, 0), 3u);
  EXPECT_EQ(flits.count_at(1, 1), 7u);
  // Column sums reproduce the live counters minus the construction baseline.
  EXPECT_EQ(flits.entity_total(0), live[0] - 10);
  EXPECT_EQ(flits.entity_total(1), live[1] - 20);
  const obs::MetricSeries& occ = tl.series[1];
  EXPECT_EQ(occ.kind, obs::MetricKind::Gauge);
  EXPECT_DOUBLE_EQ(occ.gauge_at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(occ.gauge_at(1, 0), 2.5);
}

// ---------------------------------------------------------------------------
// Binary timeline round-trip
// ---------------------------------------------------------------------------

obs::Timeline synthetic_timeline() {
  obs::Timeline tl;
  tl.width = 3;
  tl.height = 2;
  tl.num_routers = 6;
  tl.num_islands = 2;
  tl.concentration = 1;
  tl.f_node_hz = 1e9;
  tl.control_period_node_cycles = 10000;
  tl.island_policy = {"rmsd", "dmsd"};
  tl.island_nodes = {3, 3};
  tl.window_t_ps = {10'000'000, 20'000'000};
  tl.island_rows = {{5e8, 0.9, 120.0, 0.2, 0.1, -0.05, 0},
                    {6e8, 0.95, 130.0, 0.25, 0.12, 0.02, 1},
                    {5.5e8, 0.92, 121.0, 0.21, 0.11, -0.01, 0},
                    {6.1e8, 0.96, 131.0, 0.26, 0.13, 0.03, 0}};
  tl.links = {{0, 1, 1}, {1, 3, 0}};
  obs::MetricSeries s;
  s.name = "flits_forwarded";
  s.scope = obs::MetricScope::Tile;
  s.kind = obs::MetricKind::Counter;
  s.entities = 6;
  s.counts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  tl.series.push_back(s);
  obs::MetricSeries g;
  g.name = "cdc_occupancy";
  g.scope = obs::MetricScope::Island;
  g.kind = obs::MetricKind::Gauge;
  g.entities = 2;
  g.gauges = {0.5, 1.5, 2.5, 3.5};
  tl.series.push_back(g);
  tl.events = {{obs::EventKind::DvfsActuation, 0, 10'000'000, 5e8, 1e9},
               {obs::EventKind::FaultEpoch, -1, 15'000'000, 2.0, 0.0},
               {obs::EventKind::Settled, 1, 20'000'000, 6e8, 0.0}};
  // v2 sections: one complete two-hop packet flight and one histogram.
  obs::FlightRecord fl;
  fl.packet_id = 42;
  fl.src = 0;
  fl.dst = 1;
  fl.size_flits = 20;
  fl.traffic_class = 1;
  fl.create_t_ps = 900;
  fl.events = {{1000, -1, 0, obs::FlightStage::Inject},
               {1100, 0, 0, obs::FlightStage::RouterArrive},
               {1200, 0, 2, obs::FlightStage::RouteComputed},
               {1300, 0, 1, obs::FlightStage::VcGranted},
               {1400, 0, 2, obs::FlightStage::RouterDepart},
               {1500, 1, 1, obs::FlightStage::RouterArrive},
               {1600, 1, 4, obs::FlightStage::RouteComputed},
               {1700, 1, 0, obs::FlightStage::VcGranted},
               {1900, 1, 4, obs::FlightStage::RouterDepart},
               {2000, -1, 0, obs::FlightStage::Eject}};
  tl.flights.push_back(fl);
  obs::HistogramSnapshot hs;
  hs.label = "delay_ps";
  hs.count = 3;
  hs.min = 100;
  hs.max = 4000;
  hs.bucket_index = {36, 79};  // 100 and 4000 in the v4 scheme
  hs.bucket_count = {2, 1};
  tl.histograms.push_back(hs);
  return tl;
}

TEST(TimelineBinary, RoundTripsEveryField) {
  const obs::Timeline tl = synthetic_timeline();
  const std::string path = temp_base("roundtrip") + ".nocobs";
  obs::write_timeline_binary(tl, path);
  const obs::Timeline rt = obs::read_timeline_binary(path);

  EXPECT_EQ(rt.width, tl.width);
  EXPECT_EQ(rt.height, tl.height);
  EXPECT_EQ(rt.num_routers, tl.num_routers);
  EXPECT_EQ(rt.num_islands, tl.num_islands);
  EXPECT_EQ(rt.concentration, tl.concentration);
  EXPECT_DOUBLE_EQ(rt.f_node_hz, tl.f_node_hz);
  EXPECT_EQ(rt.control_period_node_cycles, tl.control_period_node_cycles);
  EXPECT_EQ(rt.island_policy, tl.island_policy);
  EXPECT_EQ(rt.island_nodes, tl.island_nodes);
  EXPECT_EQ(rt.window_t_ps, tl.window_t_ps);
  ASSERT_EQ(rt.island_rows.size(), tl.island_rows.size());
  for (std::size_t i = 0; i < tl.island_rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rt.island_rows[i].f_hz, tl.island_rows[i].f_hz);
    EXPECT_DOUBLE_EQ(rt.island_rows[i].ctrl_error, tl.island_rows[i].ctrl_error);
    EXPECT_EQ(rt.island_rows[i].throttled, tl.island_rows[i].throttled);
  }
  ASSERT_EQ(rt.links.size(), tl.links.size());
  EXPECT_EQ(rt.links[1].src_router, 1);
  EXPECT_EQ(rt.links[1].src_port, 3);
  ASSERT_EQ(rt.series.size(), tl.series.size());
  EXPECT_EQ(rt.series[0].name, "flits_forwarded");
  EXPECT_EQ(rt.series[0].counts, tl.series[0].counts);
  EXPECT_EQ(rt.series[1].gauges, tl.series[1].gauges);
  ASSERT_EQ(rt.events.size(), tl.events.size());
  EXPECT_EQ(rt.events[1].kind, obs::EventKind::FaultEpoch);
  EXPECT_EQ(rt.events[1].island, -1);
  EXPECT_EQ(rt.events[2].t_ps, 20'000'000u);
  EXPECT_DOUBLE_EQ(rt.events[0].b, 1e9);
  // v2 sections.
  EXPECT_EQ(rt.version, obs::Timeline::kVersion);
  ASSERT_EQ(rt.flights.size(), tl.flights.size());
  EXPECT_EQ(rt.flights[0].packet_id, 42u);
  EXPECT_EQ(rt.flights[0].src, 0);
  EXPECT_EQ(rt.flights[0].dst, 1);
  EXPECT_EQ(rt.flights[0].size_flits, 20);
  EXPECT_EQ(rt.flights[0].traffic_class, 1);
  EXPECT_EQ(rt.flights[0].create_t_ps, 900u);
  ASSERT_EQ(rt.flights[0].events.size(), tl.flights[0].events.size());
  EXPECT_EQ(rt.flights[0].events[1].stage, obs::FlightStage::RouterArrive);
  EXPECT_EQ(rt.flights[0].events[4].arg, 2);
  EXPECT_EQ(rt.flights[0].events.back().t_ps, 2000u);
  EXPECT_EQ(rt.flights[0].events.back().stage, obs::FlightStage::Eject);
  ASSERT_EQ(rt.histograms.size(), 1u);
  EXPECT_EQ(rt.histograms[0].label, "delay_ps");
  EXPECT_EQ(rt.histograms[0].count, 3u);
  EXPECT_EQ(rt.histograms[0].min, 100u);
  EXPECT_EQ(rt.histograms[0].max, 4000u);
  EXPECT_EQ(rt.histograms[0].bucket_index, tl.histograms[0].bucket_index);
  EXPECT_EQ(rt.histograms[0].bucket_count, tl.histograms[0].bucket_count);
  fs::remove(path);
}

TEST(TimelineBinary, RejectsTruncatedAndForeignFiles) {
  const obs::Timeline tl = synthetic_timeline();
  const std::string path = temp_base("truncate") + ".nocobs";
  obs::write_timeline_binary(tl, path);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  EXPECT_THROW(obs::read_timeline_binary(path), std::runtime_error);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "not a timeline";
  }
  EXPECT_THROW(obs::read_timeline_binary(path), std::runtime_error);
  EXPECT_THROW(obs::read_timeline_binary(temp_base("missing") + ".nocobs"),
               std::runtime_error);
  fs::remove(path);
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes `bytes` as a .nocobs file and reads it: the reader must return a
/// timeline or throw std::runtime_error — no other exception, no crash.
void expect_read_or_runtime_error(const std::string& path, const std::string& bytes,
                                  const std::string& what) {
  write_bytes(path, bytes);
  try {
    (void)obs::read_timeline_binary(path);
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as a non-runtime_error: " << e.what();
  }
}

/// Length fields are checked against INT_MAX and against the bytes left
/// before anything is sized from them.
TEST(TimelineBinary, RejectsHostileLengthFields) {
  const std::string path = temp_base("hostile") + ".nocobs";
  obs::write_timeline_binary(synthetic_timeline(), path);
  std::string valid;
  {
    std::ifstream is(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  // magic, version, width, height, num_routers, num_islands, concentration
  // (u32 each), f_node (f64), control period (u64).
  constexpr std::size_t kHeaderBytes = 44;
  constexpr std::size_t kNumIslandsAt = 20;
  ASSERT_GT(valid.size(), kHeaderBytes);
  const auto u32 = [](std::uint32_t v) { return std::string(reinterpret_cast<char*>(&v), 4); };
  const auto rejected_naming = [&](const std::string& bytes, const std::string& field) {
    write_bytes(path, bytes);
    try {
      (void)obs::read_timeline_binary(path);
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path), std::string::npos) << msg;
      EXPECT_NE(msg.find(field), std::string::npos) << msg;
      return;
    }
    ADD_FAILURE() << field << " was accepted";
  };

  // 56 bytes: num_islands = 0xFFFFFFFF and one window.
  std::string islands = valid.substr(0, kHeaderBytes);
  islands.replace(kNumIslandsAt, 4, u32(0xFFFFFFFFu));
  islands += u32(1) + std::string(8, '\0');
  ASSERT_EQ(islands.size(), 56u);
  rejected_naming(islands, "num_islands");

  // 59 bytes: no islands and num_windows = 0xFFFFFFFF.
  std::string windows = valid.substr(0, kHeaderBytes);
  windows.replace(kNumIslandsAt, 4, u32(0));
  windows += u32(0xFFFFFFFFu) + std::string(11, '\0');
  ASSERT_EQ(windows.size(), 59u);
  rejected_naming(windows, "num_windows");

  for (std::size_t n = 0; n < valid.size(); ++n) {
    expect_read_or_runtime_error(path, valid.substr(0, n), "prefix " + std::to_string(n));
  }
  for (std::size_t at = 0; at < kHeaderBytes; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = valid;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      expect_read_or_runtime_error(
          path, flipped, "byte " + std::to_string(at) + " bit " + std::to_string(bit));
    }
    std::string flipped = valid;
    flipped[at] = static_cast<char>(~flipped[at]);
    expect_read_or_runtime_error(path, flipped, "byte " + std::to_string(at) + " inverted");
  }
  fs::remove(path);
}

/// Overwrites the u32 version field of a written .nocobs file.
void set_version(const std::string& path, std::uint32_t version) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(4);
  f.write(reinterpret_cast<const char*>(&version), sizeof version);
}

/// A histogram section is checked before anything trusts it: a bucket
/// index past the scheme's last bucket (the quantile walk would shift by
/// 64+ bits), an index out of order, or counts that do not add up to the
/// histogram's count all reject the file, naming it and the histogram.
TEST(TimelineBinary, RejectsMalformedHistograms) {
  const std::string path = temp_base("bad_hist") + ".nocobs";
  const auto rejected = [&](const obs::HistogramSnapshot& hs, std::uint32_t version) {
    obs::Timeline tl = synthetic_timeline();
    tl.histograms = {hs};
    obs::write_timeline_binary(tl, path);
    set_version(path, version);
    try {
      (void)obs::read_timeline_binary(path);
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      return what.find(path) != std::string::npos && what.find("'delay_ps'") != std::string::npos;
    }
    return false;
  };
  obs::HistogramSnapshot hs = synthetic_timeline().histograms[0];
  ASSERT_FALSE(rejected(hs, obs::Timeline::kVersion));

  obs::HistogramSnapshot index200 = hs;  // past a v3 file's 128 buckets
  index200.bucket_index = {36, 200};
  EXPECT_TRUE(rejected(index200, 3));
  EXPECT_FALSE(rejected(index200, obs::Timeline::kVersion));
  obs::HistogramSnapshot past_end = hs;
  past_end.bucket_index = {36, obs::LatencyHistogram::kNumBuckets};
  EXPECT_TRUE(rejected(past_end, obs::Timeline::kVersion));
  obs::HistogramSnapshot descending = hs;
  descending.bucket_index = {79, 36};
  EXPECT_TRUE(rejected(descending, obs::Timeline::kVersion));
  obs::HistogramSnapshot short_count = hs;
  short_count.count = 4;  // buckets hold 3
  EXPECT_TRUE(rejected(short_count, obs::Timeline::kVersion));
  obs::HistogramSnapshot inverted = hs;
  std::swap(inverted.min, inverted.max);
  EXPECT_TRUE(rejected(inverted, obs::Timeline::kVersion));
  obs::HistogramSnapshot too_many = hs;  // more buckets than the scheme has
  too_many.bucket_index.clear();
  too_many.bucket_count.assign(obs::LatencyHistogram::kNumBuckets + 1, 1);
  for (std::uint32_t i = 0; i < too_many.bucket_count.size(); ++i) {
    too_many.bucket_index.push_back(i);
  }
  too_many.count = too_many.bucket_count.size();
  EXPECT_TRUE(rejected(too_many, obs::Timeline::kVersion));
  fs::remove(path);
}

/// A pre-v4 file still reads; its histograms, bucketed by the older
/// scheme, are checked and dropped.
TEST(TimelineBinary, DropsPreV4Histograms) {
  const std::string path = temp_base("v3") + ".nocobs";
  obs::write_timeline_binary(synthetic_timeline(), path);
  set_version(path, 3);
  const obs::Timeline rt = obs::read_timeline_binary(path);
  EXPECT_EQ(rt.version, 3u);
  EXPECT_EQ(rt.flights.size(), 1u);
  EXPECT_TRUE(rt.histograms.empty());
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// .nocobs golden bytes and mutations
// ---------------------------------------------------------------------------

/// synthetic_timeline() plus the v3 host sections, so every v4 section has
/// entries. tests/golden/timeline_v4.nocobs is its encoding, written by the
/// writer that preceded the single field walk.
obs::Timeline golden_timeline() {
  obs::Timeline tl = synthetic_timeline();
  tl.manifest = {{"scenario.seed", "1"}, {"build.compiler", "test"}};
  tl.host_phases = {{"run", 0, 1, 5000, 2000}, {"island_step#0", 1, 10, 3000, 3000}};
  tl.host_spans = {{0, 0, 100, 200}, {1, 1, 120, 260}};
  tl.host_workers = {{0, 1, 100}, {1, 1, 140}};
  return tl;
}

const std::string kGoldenTimeline = std::string(NOCDVFS_GOLDEN_DIR) + "/timeline_v4.nocobs";
constexpr std::size_t kGoldenTimelineBytes = 1098;

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

/// Every field of `a` equals the one in `b`; doubles bit for bit.
void expect_same_timeline(const obs::Timeline& a, const obs::Timeline& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.num_routers, b.num_routers);
  EXPECT_EQ(a.num_islands, b.num_islands);
  EXPECT_EQ(a.concentration, b.concentration);
  EXPECT_EQ(a.f_node_hz, b.f_node_hz);
  EXPECT_EQ(a.control_period_node_cycles, b.control_period_node_cycles);
  EXPECT_EQ(a.island_policy, b.island_policy);
  EXPECT_EQ(a.island_nodes, b.island_nodes);
  EXPECT_EQ(a.window_t_ps, b.window_t_ps);
  ASSERT_EQ(a.island_rows.size(), b.island_rows.size());
  for (std::size_t i = 0; i < a.island_rows.size(); ++i) {
    const obs::IslandWindowRow& x = a.island_rows[i];
    const obs::IslandWindowRow& y = b.island_rows[i];
    EXPECT_EQ(x.f_hz, y.f_hz) << "row " << i;
    EXPECT_EQ(x.vdd, y.vdd) << "row " << i;
    EXPECT_EQ(x.avg_delay_ns, y.avg_delay_ns) << "row " << i;
    EXPECT_EQ(x.lambda_offered, y.lambda_offered) << "row " << i;
    EXPECT_EQ(x.occupancy, y.occupancy) << "row " << i;
    EXPECT_EQ(x.ctrl_error, y.ctrl_error) << "row " << i;
    EXPECT_EQ(x.throttled, y.throttled) << "row " << i;
  }
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].src_router, b.links[i].src_router) << "link " << i;
    EXPECT_EQ(a.links[i].src_port, b.links[i].src_port) << "link " << i;
    EXPECT_EQ(a.links[i].dst_router, b.links[i].dst_router) << "link " << i;
  }
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].name, b.series[i].name);
    EXPECT_EQ(a.series[i].scope, b.series[i].scope);
    EXPECT_EQ(a.series[i].kind, b.series[i].kind);
    EXPECT_EQ(a.series[i].entities, b.series[i].entities);
    EXPECT_EQ(a.series[i].counts, b.series[i].counts);
    EXPECT_EQ(a.series[i].gauges, b.series[i].gauges);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].island, b.events[i].island) << "event " << i;
    EXPECT_EQ(a.events[i].t_ps, b.events[i].t_ps) << "event " << i;
    EXPECT_EQ(a.events[i].a, b.events[i].a) << "event " << i;
    EXPECT_EQ(a.events[i].b, b.events[i].b) << "event " << i;
  }
  ASSERT_EQ(a.flights.size(), b.flights.size());
  for (std::size_t i = 0; i < a.flights.size(); ++i) {
    const obs::FlightRecord& x = a.flights[i];
    const obs::FlightRecord& y = b.flights[i];
    EXPECT_EQ(x.packet_id, y.packet_id);
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.dst, y.dst);
    EXPECT_EQ(x.size_flits, y.size_flits);
    EXPECT_EQ(x.traffic_class, y.traffic_class);
    EXPECT_EQ(x.create_t_ps, y.create_t_ps);
    ASSERT_EQ(x.events.size(), y.events.size());
    for (std::size_t e = 0; e < x.events.size(); ++e) {
      EXPECT_EQ(x.events[e].t_ps, y.events[e].t_ps) << "flight event " << e;
      EXPECT_EQ(x.events[e].router, y.events[e].router) << "flight event " << e;
      EXPECT_EQ(x.events[e].arg, y.events[e].arg) << "flight event " << e;
      EXPECT_EQ(x.events[e].stage, y.events[e].stage) << "flight event " << e;
    }
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].label, b.histograms[i].label);
    EXPECT_EQ(a.histograms[i].count, b.histograms[i].count);
    EXPECT_EQ(a.histograms[i].min, b.histograms[i].min);
    EXPECT_EQ(a.histograms[i].max, b.histograms[i].max);
    EXPECT_EQ(a.histograms[i].bucket_index, b.histograms[i].bucket_index);
    EXPECT_EQ(a.histograms[i].bucket_count, b.histograms[i].bucket_count);
  }
  EXPECT_EQ(a.manifest, b.manifest);
  ASSERT_EQ(a.host_phases.size(), b.host_phases.size());
  for (std::size_t i = 0; i < a.host_phases.size(); ++i) {
    EXPECT_EQ(a.host_phases[i].name, b.host_phases[i].name);
    EXPECT_EQ(a.host_phases[i].depth, b.host_phases[i].depth);
    EXPECT_EQ(a.host_phases[i].calls, b.host_phases[i].calls);
    EXPECT_EQ(a.host_phases[i].inclusive_ns, b.host_phases[i].inclusive_ns);
    EXPECT_EQ(a.host_phases[i].exclusive_ns, b.host_phases[i].exclusive_ns);
  }
  ASSERT_EQ(a.host_spans.size(), b.host_spans.size());
  for (std::size_t i = 0; i < a.host_spans.size(); ++i) {
    EXPECT_EQ(a.host_spans[i].worker, b.host_spans[i].worker);
    EXPECT_EQ(a.host_spans[i].point, b.host_spans[i].point);
    EXPECT_EQ(a.host_spans[i].t0_ns, b.host_spans[i].t0_ns);
    EXPECT_EQ(a.host_spans[i].t1_ns, b.host_spans[i].t1_ns);
  }
  ASSERT_EQ(a.host_workers.size(), b.host_workers.size());
  for (std::size_t i = 0; i < a.host_workers.size(); ++i) {
    EXPECT_EQ(a.host_workers[i].worker, b.host_workers[i].worker);
    EXPECT_EQ(a.host_workers[i].points, b.host_workers[i].points);
    EXPECT_EQ(a.host_workers[i].busy_ns, b.host_workers[i].busy_ns);
  }
}

TEST(TimelineBinary, GoldenBytesAndRoundTrip) {
  const std::string golden = file_bytes(kGoldenTimeline);
  ASSERT_EQ(golden.size(), kGoldenTimelineBytes) << kGoldenTimeline;
  const std::string path = temp_base("golden") + ".nocobs";
  obs::write_timeline_binary(golden_timeline(), path);
  const std::string written = file_bytes(path);
  ASSERT_EQ(written.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(written[i], golden[i]) << "first difference at byte " << i;
  }
  expect_same_timeline(obs::read_timeline_binary(kGoldenTimeline), golden_timeline());
  fs::remove(path);
}

/// Largest allocation a read may make per byte of its file: a count is
/// trusted only as far as the file holds its entries, and one in-memory
/// entry is at most this many times its smallest encoding. The allowance
/// on top covers the file stream's own buffer.
constexpr std::size_t kAllocPerFileByte = 16;
constexpr std::size_t kStreamBufferBytes = std::size_t{16} << 10;

/// Reads `bytes` as a .nocobs file: it must parse, or throw
/// std::runtime_error naming the file, without any allocation past the
/// bound above. Returns the error message, empty when it parsed.
std::string read_mutant(const std::string& path, const std::string& bytes,
                        const std::string& what) {
  write_bytes(path, bytes);
  g_largest_allocation.store(0);
  std::string error;
  try {
    (void)obs::read_timeline_binary(path);
  } catch (const std::runtime_error& e) {
    error = e.what();
    EXPECT_NE(error.find("'" + path + "'"), std::string::npos) << what << ": " << error;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as a non-runtime_error: " << e.what();
  }
  EXPECT_LE(g_largest_allocation.load(), kAllocPerFileByte * bytes.size() + kStreamBufferBytes)
      << what;
  return error;
}

/// A count field of the golden file: where it sits, the count it holds,
/// where its entries start, and the smallest encoding of one entry.
struct CountField {
  const char* name;
  std::size_t at;
  std::uint32_t value;
  std::size_t entries_at;
  std::size_t entry_bytes;
};

constexpr CountField kGoldenCounts[] = {
    {"num_islands", 20, 2, 44, 8},          {"num_windows", 68, 2, 72, 8},
    {"num_links", 284, 2, 288, 12},         {"num_series", 312, 2, 316, 10},
    {"num_events", 492, 3, 496, 29},        {"num_flights", 583, 1, 587, 33},
    {"flight events", 616, 10, 620, 17},    {"num_histograms", 790, 1, 794, 32},
    {"histogram buckets", 830, 2, 834, 12}, {"num_manifest", 858, 2, 862, 8},
    {"num_phases", 910, 2, 914, 32},        {"num_spans", 994, 2, 998, 28},
    {"num_workers", 1054, 2, 1058, 20},
};
constexpr std::size_t kGoldenHeaderBytes = 44;

std::uint32_t u32_at(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  return v;
}

void set_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

TEST(TimelineMutation, EveryPrefixIsRejectedNamingTheFile) {
  const std::string golden = file_bytes(kGoldenTimeline);
  ASSERT_EQ(golden.size(), kGoldenTimelineBytes);
  const std::string path = temp_base("mut_prefix") + ".nocobs";
  for (std::size_t n = 0; n < golden.size(); ++n) {
    EXPECT_NE(read_mutant(path, golden.substr(0, n), "prefix " + std::to_string(n)), "")
        << "a " << n << "-byte prefix parsed";
  }
  fs::remove(path);
}

TEST(TimelineMutation, TrailingBytesAreRejected) {
  const std::string path = temp_base("mut_trailing") + ".nocobs";
  const std::string error = read_mutant(path, file_bytes(kGoldenTimeline) + '\0', "one more byte");
  EXPECT_NE(error.find("1 trailing bytes"), std::string::npos) << error;
  fs::remove(path);
}

TEST(TimelineMutation, FlipsInTheHeaderAndEveryCountParseOrThrow) {
  const std::string golden = file_bytes(kGoldenTimeline);
  ASSERT_EQ(golden.size(), kGoldenTimelineBytes);
  std::vector<std::size_t> offsets;
  for (std::size_t at = 0; at < kGoldenHeaderBytes; ++at) offsets.push_back(at);
  for (const CountField& c : kGoldenCounts) {
    for (std::size_t i = 0; i < 4; ++i) offsets.push_back(c.at + i);
  }
  const std::string path = temp_base("mut_flip") + ".nocobs";
  for (const std::size_t at : offsets) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = golden;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      read_mutant(path, flipped, "byte " + std::to_string(at) + " bit " + std::to_string(bit));
    }
    std::string inverted = golden;
    inverted[at] = static_cast<char>(~inverted[at]);
    read_mutant(path, inverted, "byte " + std::to_string(at) + " inverted");
  }
  fs::remove(path);
}

/// A count past what the file can hold is rejected by name before anything
/// is sized from it. The bound is each entry's smallest encoding, derived
/// from the field walk: one entry more than fits is rejected, and as many
/// as fit pass the count check.
TEST(TimelineMutation, LyingCountsAreRejectedNamingTheField) {
  const std::string golden = file_bytes(kGoldenTimeline);
  ASSERT_EQ(golden.size(), kGoldenTimelineBytes);
  const std::string path = temp_base("mut_count") + ".nocobs";
  for (const CountField& c : kGoldenCounts) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(u32_at(golden, c.at), c.value) << "the table no longer matches the golden file";

    std::string lie = golden;
    set_u32(lie, c.at, 0xFFFFFFFFu);
    std::string error = read_mutant(path, lie, "UINT32_MAX");
    EXPECT_NE(error.find(std::string(c.name) + ": 4294967295"), std::string::npos) << error;

    const std::size_t left = golden.size() - c.entries_at;
    const auto fits = static_cast<std::uint32_t>(left / c.entry_bytes);
    set_u32(lie, c.at, fits + 1);
    error = read_mutant(path, lie, "one more than fits");
    EXPECT_NE(error.find(std::string(c.name) + ": " + std::to_string(fits + 1) +
                         " entries of at least " + std::to_string(c.entry_bytes) + " bytes"),
              std::string::npos)
        << error;

    set_u32(lie, c.at, fits);
    error = read_mutant(path, lie, "as many as fit");
    EXPECT_EQ(error.find(std::string(c.name) + ": " + std::to_string(fits) + " entries"),
              std::string::npos)
        << error;
  }
  fs::remove(path);
}

TEST(TimelinePerfetto, EmitsStructuredTraceEvents) {
  const obs::Timeline tl = synthetic_timeline();
  std::ostringstream os;
  obs::write_timeline_perfetto(tl, os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  // One X span per (window, island) on the control-window track, plus the
  // flight's two hop spans and its source-queue wait (inject > create).
  std::size_t spans = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       ++pos) {
    ++spans;
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(tl.windows() * tl.num_islands) + 3);
  // The complete journey is stitched with flow events keyed on the packet
  // id: one start at injection, one step per mid-journey hop, one end.
  const auto count_of = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = 0; (pos = json.find(needle, pos)) != std::string::npos; ++pos) ++n;
    return n;
  };
  EXPECT_EQ(count_of("\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_of("\"ph\":\"t\""), 2u);
  EXPECT_EQ(count_of("\"ph\":\"f\""), 1u);
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":42"), std::string::npos);
  std::size_t instants = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"i\"", pos)) != std::string::npos;
       ++pos) {
    ++instants;
  }
  EXPECT_EQ(instants, tl.events.size());
  // Balanced braces/brackets outside strings (metric/event names contain
  // neither) — a cheap structural sanity check.
  long depth = 0;
  for (const char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// Conservation against the live network, across scenario shapes
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
  s.telemetry = "full";
  return s;
}

/// Runs the scenario, then asserts the router-level stall conservation law
/// and the timeline-vs-live-counter identities. `name` keys the temp file.
void check_conservation(const sim::Scenario& s, const std::string& name) {
  SCOPED_TRACE(name);
  sim::Scenario scenario = s;
  const std::string base = temp_base(name);
  scenario.telemetry_out = base;
  auto simulator = sim::make_simulator(scenario);
  const sim::RunResult r = simulator->run(scenario.phases);
  const noc::Network& net = simulator->network();

  // Per-router: every busy VC-cycle is either a forward or exactly one
  // stall cause, and the forwarded count is traversals + fault drains.
  std::uint64_t traversals = 0, dropped = 0, busy = 0, stall_sum = 0;
  for (int rt = 0; rt < net.num_routers(); ++rt) {
    const noc::Router& router = net.router_at(rt);
    const noc::RouterStallCounters& st = router.stalls();
    EXPECT_EQ(st.busy_vc_cycles, st.forwarded + st.stall_sum()) << "router " << rt;
    EXPECT_EQ(st.forwarded,
              router.activity().crossbar_traversals + router.dropped_flits())
        << "router " << rt;
    traversals += router.activity().crossbar_traversals;
    dropped += router.dropped_flits();
    busy += st.busy_vc_cycles;
    stall_sum += st.stall_sum();
  }
  // RunResult summary slice mirrors the same totals.
  EXPECT_TRUE(r.telemetry.enabled);
  EXPECT_EQ(r.telemetry.busy_vc_cycles, busy);
  EXPECT_EQ(r.telemetry.flits_forwarded, traversals);
  EXPECT_EQ(r.telemetry.busy_vc_cycles,
            r.telemetry.flits_forwarded + dropped + r.telemetry.stall_route +
                r.telemetry.stall_vc_alloc + r.telemetry.stall_switch +
                r.telemetry.stall_credit + r.telemetry.stall_drop)
      << "summary-level conservation";
  EXPECT_EQ(stall_sum, r.telemetry.stall_route + r.telemetry.stall_vc_alloc +
                           r.telemetry.stall_switch + r.telemetry.stall_credit +
                           r.telemetry.stall_drop);

  // Heatmap conservation: the sampled columns sum to the live counters
  // exactly (counters are delta-sampled with a closing sample).
  const obs::Timeline tl = obs::read_timeline_binary(base + ".nocobs");
  EXPECT_EQ(tl.windows(), static_cast<int>(r.telemetry.windows));
  EXPECT_EQ(tl.island_rows.size(),
            static_cast<std::size_t>(tl.windows() * tl.num_islands));
  for (std::size_t w = 1; w < tl.window_t_ps.size(); ++w) {
    EXPECT_LT(tl.window_t_ps[w - 1], tl.window_t_ps[w]);
  }

  const obs::MetricSeries* fw = tl.find_series("flits_forwarded");
  ASSERT_NE(fw, nullptr);
  std::uint64_t fw_sum = 0;
  for (int e = 0; e < fw->entities; ++e) fw_sum += fw->entity_total(e);
  EXPECT_EQ(fw_sum, traversals);

  const obs::MetricSeries* dropped_series = tl.find_series("flits_dropped");
  ASSERT_NE(dropped_series, nullptr);
  std::uint64_t drop_sum = 0;
  for (int e = 0; e < dropped_series->entities; ++e) {
    drop_sum += dropped_series->entity_total(e);
  }
  EXPECT_EQ(drop_sum, dropped);

  for (const char* name_and_total :
       {"flits_generated", "flits_injected", "flits_ejected", "refused_flits"}) {
    const obs::MetricSeries* series = tl.find_series(name_and_total);
    ASSERT_NE(series, nullptr) << name_and_total;
    EXPECT_EQ(series->scope, obs::MetricScope::Node);
    std::uint64_t sum = 0;
    for (int e = 0; e < series->entities; ++e) sum += series->entity_total(e);
    if (std::string(name_and_total) == "flits_generated") {
      EXPECT_EQ(sum, net.total_flits_generated());
    } else if (std::string(name_and_total) == "flits_ejected") {
      EXPECT_EQ(sum, net.total_flits_ejected());
    }
  }

  // Stall series sum to the router counters per cause.
  const struct {
    const char* series;
    std::uint64_t expected;
  } stalls[] = {{"stall_route", r.telemetry.stall_route},
                {"stall_vc_alloc", r.telemetry.stall_vc_alloc},
                {"stall_switch", r.telemetry.stall_switch},
                {"stall_credit", r.telemetry.stall_credit},
                {"stall_drop", r.telemetry.stall_drop},
                {"busy_vc_cycles", r.telemetry.busy_vc_cycles}};
  for (const auto& [series_name, expected] : stalls) {
    const obs::MetricSeries* series = tl.find_series(series_name);
    ASSERT_NE(series, nullptr) << series_name;
    std::uint64_t sum = 0;
    for (int e = 0; e < series->entities; ++e) sum += series->entity_total(e);
    EXPECT_EQ(sum, expected) << series_name;
  }

  // Link columns (telemetry=full): per-link totals match the source
  // routers' per-port counters, and every link's flits are part of the
  // forwarding total.
  const obs::MetricSeries* link_flits = tl.find_series("link_flits");
  ASSERT_NE(link_flits, nullptr);
  ASSERT_EQ(static_cast<std::size_t>(link_flits->entities), tl.links.size());
  for (int e = 0; e < link_flits->entities; ++e) {
    const obs::LinkInfo& li = tl.links[static_cast<std::size_t>(e)];
    EXPECT_EQ(link_flits->entity_total(e),
              net.router_at(li.src_router).port_flits_forwarded(li.src_port));
  }

  fs::remove(base + ".nocobs");
  fs::remove(base + ".json");
}

TEST(TelemetryConservation, Mesh) { check_conservation(small_base(), "mesh"); }

TEST(TelemetryConservation, TorusAdaptive) {
  sim::Scenario s = small_base();
  s.network.topology = topo::TopologyKind::Torus;
  s.network.routing = noc::RoutingAlgo::Adaptive;
  check_conservation(s, "torus");
}

TEST(TelemetryConservation, FaultedTorus) {
  sim::Scenario s = small_base();
  s.network.topology = topo::TopologyKind::Torus;
  s.network.routing = noc::RoutingAlgo::Adaptive;
  s.network.faults = "links:2@0+links:1@30000";
  check_conservation(s, "faulted");
}

TEST(TelemetryConservation, MultiIsland) {
  sim::Scenario s = small_base();
  s.islands = "quadrants";
  s.island_policies = "rmsd,dmsd,rmsd,qbsd";
  check_conservation(s, "islands");
}

// ---------------------------------------------------------------------------
// Events & off-path identity
// ---------------------------------------------------------------------------

TEST(TelemetryEvents, FaultEpochsAndMeasureMarkersAppear) {
  sim::Scenario s = small_base();
  s.network.topology = topo::TopologyKind::Torus;
  s.network.routing = noc::RoutingAlgo::Adaptive;
  s.network.faults = "links:2@0";
  const std::string base = temp_base("events");
  s.telemetry_out = base;
  (void)sim::run(s);
  const obs::Timeline tl = obs::read_timeline_binary(base + ".nocobs");
  int faults = 0, reroutes = 0, starts = 0, ends = 0, actuations = 0;
  std::uint64_t last_t = 0;
  for (const obs::TimelineEvent& ev : tl.events) {
    switch (ev.kind) {
      case obs::EventKind::FaultEpoch: ++faults; break;
      case obs::EventKind::Reroute: ++reroutes; break;
      case obs::EventKind::MeasureStart: ++starts; break;
      case obs::EventKind::MeasureEnd: ++ends; break;
      case obs::EventKind::DvfsActuation: ++actuations; break;
      default: break;
    }
    EXPECT_GE(ev.t_ps, ev.kind == obs::EventKind::FaultEpoch ||
                               ev.kind == obs::EventKind::Reroute
                           ? 0
                           : last_t);
    if (ev.kind != obs::EventKind::FaultEpoch && ev.kind != obs::EventKind::Reroute) {
      last_t = ev.t_ps;
    }
  }
  EXPECT_EQ(faults, 1);  // the at-start epoch
  EXPECT_EQ(reroutes, 1);
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_GT(actuations, 0);
  fs::remove(base + ".nocobs");
  fs::remove(base + ".json");
}

/// telemetry=windows must not perturb the simulation: every headline
/// metric is bitwise identical to the telemetry=off run.
TEST(TelemetryOffPath, WindowsModeIsMetricsInvisible) {
  sim::Scenario off = small_base();
  off.telemetry = "off";
  sim::Scenario windows = small_base();
  windows.telemetry = "windows";
  const sim::RunResult a = sim::run(off);
  const sim::RunResult b = sim::run(windows);
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  EXPECT_EQ(bits(a.avg_delay_ns), bits(b.avg_delay_ns));
  EXPECT_EQ(bits(a.p99_delay_ns), bits(b.p99_delay_ns));
  EXPECT_EQ(bits(a.avg_frequency_hz), bits(b.avg_frequency_hz));
  EXPECT_EQ(bits(a.avg_voltage), bits(b.avg_voltage));
  EXPECT_EQ(bits(a.power.total_j()), bits(b.power.total_j()));
  EXPECT_EQ(bits(a.energy_per_bit_pj), bits(b.energy_per_bit_pj));
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.measure_noc_cycles, b.measure_noc_cycles);
  EXPECT_FALSE(a.telemetry.enabled);
  EXPECT_TRUE(b.telemetry.enabled);
  EXPECT_GT(b.telemetry.busy_vc_cycles, 0u);
  // windows mode records no link table (that's full's job).
  EXPECT_TRUE(b.telemetry.top_links.size() > 0);  // summary links come from live counters
}

TEST(TelemetryScenario, ValidatesModeAndDefaultsOff) {
  sim::Scenario s = small_base();
  s.telemetry = "bogus";
  EXPECT_FALSE(sim::scenario_problem(s).empty());
  EXPECT_THROW(sim::make_simulator(s), std::invalid_argument);
  sim::Scenario d;
  EXPECT_EQ(d.telemetry, "off");
  EXPECT_TRUE(sim::scenario_problem(d).empty());
}

}  // namespace
}  // namespace nocdvfs
