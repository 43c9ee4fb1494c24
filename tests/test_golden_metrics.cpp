// Golden bit-identity suite — the in-tree form of the hexfloat-diff
// discipline PRs 4–5 ran only in CI: a fixed-seed scenario matrix
// (policy × pattern × island layout × thermal) is executed and every
// headline RunResult metric is compared *textually* against a checked-in
// golden file, doubles rendered as hexfloat so the comparison is exact to
// the last bit. Any rewrite of the simulator hot path (skip-idle stepping,
// storage layouts, batching) must reproduce this file bit-for-bit.
//
// Regenerating the golden (one command, from the repo root):
//
//   NOCDVFS_UPDATE_GOLDEN=1 ./build/tests/test_golden_metrics
//
// which rewrites tests/golden/golden_metrics.txt in the source tree.
// Regeneration is only legitimate when the *simulated behaviour* is meant
// to change (new subsystem defaults, a physics fix); a perf-only PR that
// needs it has a correctness bug.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/timeline.hpp"
#include "sim/scenario.hpp"

#ifndef NOCDVFS_GOLDEN_DIR
#error "NOCDVFS_GOLDEN_DIR must be defined by the build (tests/CMakeLists.txt)"
#endif

namespace nocdvfs::sim {
namespace {

constexpr const char* kGoldenPath = NOCDVFS_GOLDEN_DIR "/golden_metrics.txt";
constexpr const char* kSubsystemsGoldenPath = NOCDVFS_GOLDEN_DIR "/golden_subsystems.txt";

/// The fixed-seed scenario matrix. Short fixed phases (no adaptive warmup)
/// keep the whole matrix a few seconds while still exercising every
/// policy's control loop, the quadrant island partition (CDC crossings and
/// per-island control), and the thermal subsystem's feedback path.
std::vector<Scenario> golden_matrix() {
  std::vector<Scenario> out;
  for (const Policy policy : {Policy::NoDvfs, Policy::Rmsd, Policy::Dmsd, Policy::Qbsd}) {
    for (const char* pattern : {"hotspot", "transpose"}) {
      for (const char* islands : {"global", "quadrants"}) {
        for (const bool thermal : {false, true}) {
          Scenario s;
          s.pattern = pattern;
          s.lambda = 0.15;
          s.packet_size = 20;
          s.network.width = 5;
          s.network.height = 5;
          s.policy.policy = policy;
          s.islands = islands;
          s.thermal = thermal;
          s.seed = 1;
          s.control_period = 5000;
          s.phases.warmup_node_cycles = 20000;
          s.phases.measure_node_cycles = 20000;
          s.phases.adaptive_warmup = false;
          out.push_back(s);
        }
      }
    }
  }
  return out;
}

std::string scenario_name(const Scenario& s) {
  std::string name = to_string(s.policy.policy);
  name += '-';
  name += s.pattern;
  name += '-';
  name += s.islands;
  name += s.thermal ? "-thermal" : "-cold";
  return name;
}

/// One scenario's headline metrics as a single text line: doubles in
/// hexfloat (exact), counters in decimal. The golden file is these lines
/// in matrix order.
std::string metrics_line(const std::string& name, const RunResult& r) {
  std::ostringstream os;
  os << name << std::hexfloat;
  os << " packets=" << r.packets_delivered;
  os << " avg_delay_ns=" << r.avg_delay_ns;
  os << " min_delay_ns=" << r.min_delay_ns;
  os << " max_delay_ns=" << r.max_delay_ns;
  os << " p50=" << r.p50_delay_ns;
  os << " p95=" << r.p95_delay_ns;
  os << " p99=" << r.p99_delay_ns;
  os << " latency_cycles=" << r.avg_latency_cycles;
  os << " hops=" << r.avg_hops;
  os << " offered=" << r.measured_offered_lambda;
  os << " thr_node=" << r.delivered_flits_per_node_cycle;
  os << " thr_noc=" << r.delivered_flits_per_noc_cycle;
  os << " occupancy=" << r.avg_buffer_occupancy;
  os << " f_avg=" << r.avg_frequency_hz;
  os << " v_avg=" << r.avg_voltage;
  os << " f_final=" << r.final_frequency_hz;
  os << " datapath_j=" << r.power.datapath_j;
  os << " clock_j=" << r.power.clock_j;
  os << " leakage_j=" << r.power.leakage_j;
  os << " epb_pj=" << r.energy_per_bit_pj;
  os << " edp_js=" << r.energy_delay_product_js;
  os << " noc_cycles=" << r.measure_noc_cycles;
  os << " backlog=" << r.backlog_growth_flits;
  os << " saturated=" << (r.saturated ? 1 : 0);
  os << " peak_temp_c=" << r.thermal.peak_temp_c;
  os << " throttle_res=" << r.thermal.throttle_residency;
  return os.str();
}

/// Four forced island-step workers and one awake tile per worker, so every
/// step of the 5x5 golden runs with two or more awake tiles goes through
/// the worker pool.
void force_parallel_step(Scenario& s) {
  s.network.step.workers = 4;
  s.network.step.tiles_per_worker = 1;
}

std::vector<std::string> compute_lines(bool parallel_step = false) {
  std::vector<std::string> lines;
  for (Scenario s : golden_matrix()) {
    if (parallel_step) force_parallel_step(s);
    lines.push_back(metrics_line(scenario_name(s), run(s)));
  }
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

bool update_mode() {
  const char* v = std::getenv("NOCDVFS_UPDATE_GOLDEN");
  return v != nullptr && std::string(v) != "0";
}

/// Compares `fresh` line by line against the golden file at `path`, or
/// rewrites the file in update mode.
void check_against_golden(const char* path, const std::vector<std::string>& fresh) {
  if (update_mode()) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write golden file " << path;
    for (const std::string& line : fresh) out << line << '\n';
    std::cout << "[golden] wrote " << fresh.size() << " lines to " << path << "\n";
    return;
  }

  const std::vector<std::string> golden = read_lines(path);
  ASSERT_FALSE(golden.empty())
      << "golden file missing or empty: " << path
      << "\nregenerate with: NOCDVFS_UPDATE_GOLDEN=1 ./build/tests/test_golden_metrics";
  ASSERT_EQ(golden.size(), fresh.size()) << "golden line count changed; regenerate the "
                                            "golden if the change is intentional";
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(golden[i], fresh[i])
        << "metrics diverged from the golden " << path << " (line " << i + 1
        << "). If this PR was meant to be metrics-preserving this is a bug; if the "
           "behaviour change is intentional, regenerate with NOCDVFS_UPDATE_GOLDEN=1.";
  }
}

TEST(GoldenMetrics, MatrixMatchesCheckedInGolden) {
  check_against_golden(kGoldenPath, compute_lines());
}

/// The value of `key=` on a golden line, or "" when absent.
std::string field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size() + 2;
  return line.substr(begin, line.find(' ', begin) - begin);
}

/// Thermal only resolves leakage by temperature, and no golden scenario
/// throttles, so every cold/thermal pair ran the same activity and must
/// charge byte-equal data-path and clock energy.
TEST(GoldenMetrics, ColdAndThermalPairsChargeTheSameDynamicEnergy) {
  const std::vector<std::string> golden = read_lines(kGoldenPath);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i + 1 < golden.size(); i += 2) {
    const std::string& cold = golden[i];
    const std::string& hot = golden[i + 1];
    const std::string name = cold.substr(0, cold.find(' '));
    ASSERT_EQ(name.substr(name.size() - 5), "-cold") << name;
    ASSERT_EQ(hot.substr(0, hot.find(' ')), name.substr(0, name.size() - 5) + "-thermal");
    ASSERT_EQ(field(hot, "throttle_res"), "0x0p+0") << name;
    for (const char* key : {"datapath_j", "clock_j"}) {
      EXPECT_FALSE(field(cold, key).empty()) << name << " " << key;
      EXPECT_EQ(field(cold, key), field(hot, key)) << name << " " << key;
    }
    ++pairs;
  }
  EXPECT_EQ(pairs, 16u);
}

// --- every-subsystem golden ------------------------------------------------
//
// The headline golden above pins 26 scalar fields. This second golden pins
// everything else the run loop and its subsystems write — the window and
// actuation traces, every island slice, the latency distributions, the
// telemetry and thermal slices — plus the simulated sections of the
// exported .nocobs file (windows, island rows, events, series, flights,
// histograms). Host-side sections (wall time, profile, manifest) vary run
// to run and are left out.

/// Four 5x5 scenarios with thermal, full telemetry and the flight recorder
/// on: two policies x {global, quadrants}, one of them with
/// a mid-run link fault so the fault-epoch events are exercised too.
std::vector<Scenario> subsystems_matrix() {
  std::vector<Scenario> out;
  for (const Policy policy : {Policy::Rmsd, Policy::Dmsd}) {
    for (const char* islands : {"global", "quadrants"}) {
      Scenario s;
      s.pattern = policy == Policy::Rmsd ? "hotspot" : "transpose";
      s.lambda = 0.15;
      s.packet_size = 20;
      s.network.width = 5;
      s.network.height = 5;
      s.policy.policy = policy;
      s.islands = islands;
      s.thermal = true;
      s.telemetry = "full";
      s.pkt_trace = "on";
      // A cap just above the warm die temperature, so the thermal guard
      // engages and releases inside the run.
      s.temp_cap_c = 48.8;
      s.temp_hysteresis_c = 0.5;
      if (policy == Policy::Dmsd && std::string(islands) == "quadrants") {
        s.network.faults = "links:1@15000";
      }
      s.seed = 1;
      s.control_period = 5000;
      s.phases.warmup_node_cycles = 20000;
      s.phases.measure_node_cycles = 20000;
      s.phases.adaptive_warmup = false;
      out.push_back(s);
    }
  }
  return out;
}

/// Line-oriented hexfloat dump: every `field(...)` call appends one
/// `name=value` token to the current line; `line()` starts a new one.
class Dump {
 public:
  explicit Dump(std::vector<std::string>& out) : out_(out) {}
  void line(const std::string& tag) {
    flush();
    os_.str("");
    os_ << std::hexfloat << tag;
  }
  template <class T>
  void field(const char* name, const T& v) {
    os_ << ' ' << name << '=' << v;
  }
  void flush() {
    if (!os_.str().empty()) out_.push_back(os_.str());
  }

 private:
  std::vector<std::string>& out_;
  std::ostringstream os_;
};

void dump_power(Dump& d, const power::PowerBreakdown& p) {
  d.field("datapath_j", p.datapath_j);
  d.field("clock_j", p.clock_j);
  d.field("leakage_j", p.leakage_j);
  d.field("elapsed_ps", p.elapsed_ps);
}

void dump_slice(Dump& d, const std::string& tag, const DelayDistResult::Slice& s) {
  d.line(tag);
  d.field("count", s.count);
  d.field("min", s.min);
  d.field("max", s.max);
  d.field("p50", s.p50);
  d.field("p90", s.p90);
  d.field("p95", s.p95);
  d.field("p99", s.p99);
  d.field("p999", s.p999);
}

void dump_result(Dump& d, const std::string& name, const RunResult& r) {
  d.line(name + " result");
  d.field("offered", r.offered_lambda);
  d.field("measured_offered", r.measured_offered_lambda);
  d.field("node_cycles", r.measure_node_cycles);
  d.field("noc_cycles", r.measure_noc_cycles);
  d.field("duration_ps", r.measure_duration_ps);
  d.field("packets", r.packets_delivered);
  d.field("avg_delay", r.avg_delay_ns);
  d.field("min_delay", r.min_delay_ns);
  d.field("max_delay", r.max_delay_ns);
  d.field("p50", r.p50_delay_ns);
  d.field("p95", r.p95_delay_ns);
  d.field("p99", r.p99_delay_ns);
  d.field("latency", r.avg_latency_cycles);
  d.field("hops", r.avg_hops);
  d.field("max_hops", r.max_hops);
  d.field("class0_delay", r.avg_class0_delay_ns);
  d.field("class0", r.class0_packets);
  d.field("class1_delay", r.avg_class1_delay_ns);
  d.field("class1", r.class1_packets);
  d.field("thr_node", r.delivered_flits_per_node_cycle);
  d.field("thr_noc", r.delivered_flits_per_noc_cycle);
  d.field("occupancy", r.avg_buffer_occupancy);
  d.field("f_avg", r.avg_frequency_hz);
  d.field("v_avg", r.avg_voltage);
  d.field("f_final", r.final_frequency_hz);
  dump_power(d, r.power);
  d.field("epb", r.energy_per_bit_pj);
  d.field("edp", r.energy_delay_product_js);
  d.field("dropped_packets", r.dropped_packets);
  d.field("dropped_flits", r.dropped_flits);
  d.field("unreachable", r.unreachable_pairs);
  d.field("rerouted", r.rerouted_pairs);
  d.field("failed_links", r.failed_links);
  d.field("failed_routers", r.failed_routers);
  d.field("saturated", r.saturated ? 1 : 0);
  d.field("backlog", r.backlog_growth_flits);
  d.field("warmup_used", r.warmup_node_cycles_used);
  d.field("settled", r.controller_settled ? 1 : 0);

  for (const dvfs::VfTracePoint& p : r.vf_trace) {
    d.line(name + " vf");
    d.field("t", p.t);
    d.field("f", p.f);
    d.field("vdd", p.vdd);
  }
  for (const WindowSample& w : r.window_trace) {
    d.line(name + " window");
    d.field("t", w.t);
    d.field("delay", w.avg_delay_ns);
    d.field("packets", w.packets);
    d.field("f", w.f_applied);
  }

  for (const IslandResult& isl : r.islands) {
    const std::string tag = name + " island" + std::to_string(isl.island);
    d.line(tag);
    d.field("nodes", isl.nodes);
    d.field("policy", isl.policy);
    d.field("packets", isl.packets_delivered);
    d.field("delay", isl.avg_delay_ns);
    d.field("f_avg", isl.avg_frequency_hz);
    d.field("v_avg", isl.avg_voltage);
    d.field("f_final", isl.final_frequency_hz);
    d.field("noc_cycles", isl.measure_noc_cycles);
    d.field("occupancy", isl.avg_buffer_occupancy);
    dump_power(d, isl.power);
    d.field("peak_temp", isl.peak_temp_c);
    d.field("throttle_res", isl.throttle_residency);
    d.field("throttle_events", isl.throttle_events);
    for (const dvfs::VfTracePoint& p : isl.vf_trace) {
      d.line(tag + " vf");
      d.field("t", p.t);
      d.field("f", p.f);
      d.field("vdd", p.vdd);
    }
    for (const vfi::FreqDwell& dw : isl.freq_residency) {
      d.line(tag + " dwell");
      d.field("f", dw.f_hz);
      d.field("ps", dw.dwell_ps);
    }
  }

  const ThermalResult& th = r.thermal;
  d.line(name + " thermal");
  d.field("enabled", th.enabled ? 1 : 0);
  d.field("peak", th.peak_temp_c);
  d.field("mean", th.mean_temp_c);
  d.field("final_peak", th.final_peak_temp_c);
  d.field("final_mean", th.final_mean_temp_c);
  d.field("throttle_res", th.throttle_residency);
  d.field("throttle_events", th.throttle_events);
  d.field("leakage_j", th.leakage_j);
  d.field("leakage_ref_j", th.leakage_ref_j);
  d.line(name + " tile_peak");
  for (const double t : th.tile_peak_temp_c) d.field("t", t);

  const DelayDistResult& dd = r.delay_dist;
  dump_slice(d, name + " dist delay", dd.delay_ns);
  dump_slice(d, name + " dist latency", dd.latency_cycles);
  for (std::size_t i = 0; i < dd.island_delay_ns.size(); ++i) {
    dump_slice(d, name + " dist island" + std::to_string(i), dd.island_delay_ns[i]);
  }
  for (std::size_t h = 0; h < dd.hop_delay_ns.size(); ++h) {
    dump_slice(d, name + " dist hops" + std::to_string(h), dd.hop_delay_ns[h]);
  }

  const TelemetryResult& tr = r.telemetry;
  d.line(name + " telemetry");
  d.field("enabled", tr.enabled ? 1 : 0);
  d.field("mode", tr.mode);
  d.field("windows", tr.windows);
  d.field("route", tr.stall_route);
  d.field("vc_alloc", tr.stall_vc_alloc);
  d.field("switch", tr.stall_switch);
  d.field("credit", tr.stall_credit);
  d.field("drop", tr.stall_drop);
  d.field("busy", tr.busy_vc_cycles);
  d.field("forwarded", tr.flits_forwarded);
  d.line(name + " top_tiles");
  for (const auto& t : tr.top_tiles) d.field(std::to_string(t.tile).c_str(), t.flits);
  d.line(name + " top_links");
  for (const auto& l : tr.top_links) {
    d.field((std::to_string(l.src) + '>' + std::to_string(l.dst)).c_str(), l.flits);
  }
}

/// FNV-1a over a value's bytes: folds long columns into one pinned token.
template <class T>
std::uint64_t fnv(std::uint64_t h, const T& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof(T); ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

void dump_timeline(Dump& d, const std::string& name, const obs::Timeline& tl) {
  d.line(name + " nocobs");
  d.field("routers", tl.num_routers);
  d.field("islands", tl.num_islands);
  d.field("windows", tl.windows());
  d.field("links", tl.links.size());
  for (std::size_t i = 0; i < tl.island_policy.size(); ++i) {
    d.field("policy", tl.island_policy[i]);
    d.field("nodes", tl.island_nodes[i]);
  }
  d.line(name + " nocobs window_t");
  for (const std::uint64_t t : tl.window_t_ps) d.field("t", t);
  for (const obs::IslandWindowRow& row : tl.island_rows) {
    d.line(name + " nocobs row");
    d.field("f", row.f_hz);
    d.field("vdd", row.vdd);
    d.field("delay", row.avg_delay_ns);
    d.field("lambda", row.lambda_offered);
    d.field("occ", row.occupancy);
    d.field("err", row.ctrl_error);
    d.field("thr", static_cast<int>(row.throttled));
  }
  for (const obs::TimelineEvent& ev : tl.events) {
    d.line(name + " nocobs event");
    d.field("kind", obs::to_string(ev.kind));
    d.field("island", ev.island);
    d.field("t", ev.t_ps);
    d.field("a", ev.a);
    d.field("b", ev.b);
  }
  for (const obs::MetricSeries& s : tl.series) {
    d.line(name + " nocobs series " + s.name);
    d.field("scope", obs::to_string(s.scope));
    d.field("entities", s.entities);
    if (s.kind == obs::MetricKind::Counter) {
      std::uint64_t sum = 0;
      std::uint64_t h = kFnvBasis;
      for (const std::uint64_t c : s.counts) {
        sum += c;
        h = fnv(h, c);
      }
      d.field("sum", sum);
      d.field("fnv", h);
    } else {
      double sum = 0.0;
      std::uint64_t h = kFnvBasis;
      for (const double g : s.gauges) {
        sum += g;
        h = fnv(h, g);
      }
      d.field("gsum", sum);
      d.field("fnv", h);
    }
  }
  for (const obs::FlightRecord& f : tl.flights) {
    d.line(name + " nocobs flight");
    d.field("id", f.packet_id);
    d.field("src", f.src);
    d.field("dst", f.dst);
    d.field("size", f.size_flits);
    d.field("class", static_cast<int>(f.traffic_class));
    d.field("create", f.create_t_ps);
    d.field("events", f.events.size());
    std::uint64_t h = kFnvBasis;
    for (const obs::FlightEvent& e : f.events) {
      h = fnv(h, e.t_ps);
      h = fnv(h, e.router);
      h = fnv(h, e.arg);
      h = fnv(h, static_cast<std::uint8_t>(e.stage));
    }
    d.field("fnv", h);
  }
  for (const obs::HistogramSnapshot& hs : tl.histograms) {
    d.line(name + " nocobs hist " + hs.label);
    d.field("count", hs.count);
    d.field("min", hs.min);
    d.field("max", hs.max);
    for (std::size_t b = 0; b < hs.bucket_index.size(); ++b) {
      d.field(std::to_string(hs.bucket_index[b]).c_str(), hs.bucket_count[b]);
    }
  }
}

std::vector<std::string> compute_subsystem_lines(bool parallel_step = false) {
  namespace fs = std::filesystem;
  std::vector<std::string> lines;
  Dump d(lines);
  for (Scenario s : subsystems_matrix()) {
    if (parallel_step) force_parallel_step(s);
    const std::string name =
        std::string(to_string(s.policy.policy)) + "-" + s.pattern + "-" + s.islands;
    const std::string base =
        (fs::temp_directory_path() / ("nocdvfs_golden_subsystems_" + name)).string();
    s.telemetry_out = base;
    dump_result(d, name, run(s));
    dump_timeline(d, name, obs::read_timeline_binary(base + ".nocobs"));
    fs::remove(base + ".nocobs");
    fs::remove(base + ".json");
  }
  d.flush();
  return lines;
}

TEST(GoldenMetrics, SubsystemsMatchCheckedInGolden) {
  check_against_golden(kSubsystemsGoldenPath, compute_subsystem_lines());
}

/// The parallel island step is an optimization, not a behaviour change:
/// both goldens reproduce byte for byte with the steps split across four
/// workers. Never regenerates (update mode writes from the serial runs).
TEST(GoldenMetrics, ParallelStepMatchesCheckedInGoldens) {
  if (update_mode()) GTEST_SKIP() << "the goldens are written from the serial runs";
  check_against_golden(kGoldenPath, compute_lines(true));
  check_against_golden(kSubsystemsGoldenPath, compute_subsystem_lines(true));
}

/// One golden row per policy, covering both island layouts and thermal on.
constexpr std::size_t kSliceRows[] = {0, 7, 17, 22, 30};

/// The forced-worker gate at a fraction of the cost, for instrumented
/// builds: the slice rows of the headline golden plus every subsystem row.
TEST(GoldenMetrics, ParallelStepSlice) {
  if (update_mode()) GTEST_SKIP() << "the goldens are written from the serial runs";
  const std::vector<std::string> golden = read_lines(kGoldenPath);
  const std::vector<Scenario> matrix = golden_matrix();
  ASSERT_EQ(golden.size(), matrix.size());
  for (const std::size_t i : kSliceRows) {
    Scenario s = matrix[i];
    force_parallel_step(s);
    EXPECT_EQ(golden[i], metrics_line(scenario_name(s), run(s)))
        << "the parallel step diverged from the golden on line " << i + 1;
  }
  check_against_golden(kSubsystemsGoldenPath, compute_subsystem_lines(true));
}

/// The headline percentiles must not clip: on the saturated RMSD hotspot
/// row most packets wait longer than 8 us (the old fixed-range histogram's
/// ceiling, which it returned for all three), so p50 lies above it and the
/// percentiles are ordered up to the exact maximum.
TEST(GoldenMetrics, SaturatedPercentilesDoNotClip) {
  for (const Scenario& s : golden_matrix()) {
    if (scenario_name(s) != "rmsd-hotspot-global-cold") continue;
    const RunResult r = run(s);
    ASSERT_TRUE(r.saturated);
    EXPECT_GT(r.p50_delay_ns, 8000.0);
    EXPECT_LE(r.p50_delay_ns, r.p95_delay_ns);
    EXPECT_LE(r.p95_delay_ns, r.p99_delay_ns);
    EXPECT_LE(r.p99_delay_ns, r.max_delay_ns);
    return;
  }
  FAIL() << "rmsd-hotspot-global-cold is not in the golden matrix";
}

/// The always-step escape hatch must be metrically invisible: a
/// representative slice of the matrix re-run with network.skip_idle=false
/// (the pre-optimization stepping discipline) produces byte-identical
/// headline lines. This is the in-tree gate that the activity-list hot path is an
/// optimization, not a behaviour change.
TEST(GoldenMetrics, SkipIdleOffIsBitIdentical) {
  const std::vector<Scenario> matrix = golden_matrix();
  for (const std::size_t i : kSliceRows) {
    ASSERT_LT(i, matrix.size());
    Scenario on = matrix[i];
    Scenario off = matrix[i];
    on.network.skip_idle = true;
    off.network.skip_idle = false;
    const std::string name = scenario_name(on);
    EXPECT_EQ(metrics_line(name, run(on)), metrics_line(name, run(off)))
        << "skip-idle stepping diverged from the always-step path for " << name;
  }
}

/// The host profiler and memory accounting must be metrically invisible:
/// a slice of the matrix re-run with prof=on mem=on produces byte-identical
/// headline lines. Host observability reads the wall clock and /proc, never
/// simulator state that feeds back into the run.
TEST(GoldenMetrics, ProfilingIsBitIdentical) {
  const std::vector<Scenario> matrix = golden_matrix();
  for (const std::size_t i : {0u, 7u, 17u, 30u}) {
    ASSERT_LT(i, matrix.size());
    Scenario off = matrix[i];
    Scenario on = matrix[i];
    on.prof = "on";
    on.mem = "on";
    const std::string name = scenario_name(on);
    const RunResult r_on = run(on);
    EXPECT_FALSE(r_on.host.profile.empty())
        << "prof=on produced no host profile for " << name;
    EXPECT_EQ(metrics_line(name, r_on), metrics_line(name, run(off)))
        << "prof=on mem=on changed headline metrics for " << name;
  }
}

}  // namespace
}  // namespace nocdvfs::sim
