// Experiment-layer tests: policy plumbing, controller factory, the
// saturation finder and the anchoring procedure built on it, and the
// multimedia scenario path — all on the declarative Scenario API.

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "sim/saturation.hpp"
#include "sim/scenario.hpp"

namespace nocdvfs::sim {
namespace {

TEST(Policy, StringRoundTrip) {
  for (const Policy p : {Policy::NoDvfs, Policy::Rmsd, Policy::RmsdClosed, Policy::Dmsd,
                         Policy::Qbsd}) {
    EXPECT_EQ(policy_from_string(to_string(p)), p);
  }
  EXPECT_THROW(policy_from_string("turbo"), std::invalid_argument);
}

TEST(Policy, LookupIsCaseInsensitive) {
  for (const Policy p : {Policy::NoDvfs, Policy::Rmsd, Policy::RmsdClosed, Policy::Dmsd,
                         Policy::Qbsd}) {
    std::string upper = to_string(p);
    for (char& ch : upper) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    EXPECT_EQ(policy_from_string(upper), p) << upper;
  }
  EXPECT_EQ(policy_from_string("Rmsd-Closed"), Policy::RmsdClosed);
}

TEST(Policy, ErrorNamesOffenderAndValidSet) {
  try {
    policy_from_string("turbo");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("turbo"), std::string::npos) << msg;
    for (const Policy p : {Policy::NoDvfs, Policy::Rmsd, Policy::RmsdClosed, Policy::Dmsd,
                           Policy::Qbsd}) {
      EXPECT_NE(msg.find(to_string(p)), std::string::npos) << msg;
    }
  }
}

TEST(MakeController, ProducesTheRequestedPolicy) {
  PolicyConfig cfg;
  cfg.policy = Policy::NoDvfs;
  EXPECT_STREQ(make_controller(cfg)->name(), "nodvfs");
  cfg.policy = Policy::Rmsd;
  EXPECT_STREQ(make_controller(cfg)->name(), "rmsd");
  cfg.policy = Policy::RmsdClosed;
  EXPECT_STREQ(make_controller(cfg)->name(), "rmsd-closed");
  cfg.policy = Policy::Dmsd;
  EXPECT_STREQ(make_controller(cfg)->name(), "dmsd");
}

TEST(Experiment, UnknownPatternRejected) {
  Scenario cfg;
  cfg.pattern = "vortex";
  cfg.phases.warmup_node_cycles = 1000;
  cfg.phases.measure_node_cycles = 1000;
  EXPECT_THROW(run(cfg), std::invalid_argument);
}

TEST(Experiment, ResultEchoesOfferedLoad) {
  Scenario cfg;
  cfg.network.width = 3;
  cfg.network.height = 3;
  cfg.packet_size = 4;
  cfg.lambda = 0.12;
  cfg.control_period = 2000;
  cfg.phases.warmup_node_cycles = 10000;
  cfg.phases.measure_node_cycles = 20000;
  cfg.phases.adaptive_warmup = false;
  const RunResult r = run(cfg);
  EXPECT_DOUBLE_EQ(r.offered_lambda, 0.12);
  EXPECT_NEAR(r.measured_offered_lambda, 0.12, 0.02);
  EXPECT_EQ(r.measure_node_cycles, 20000u);
}

TEST(Experiment, QuantizedVfLevelsRestrictFrequencies) {
  Scenario cfg;
  cfg.network.width = 3;
  cfg.network.height = 3;
  cfg.packet_size = 4;
  cfg.lambda = 0.1;
  cfg.policy.policy = Policy::Rmsd;
  cfg.policy.lambda_max = 0.4;
  cfg.vf_levels = 3;  // 333, 666.5, 1000 MHz
  cfg.control_period = 2000;
  cfg.phases.warmup_node_cycles = 20000;
  cfg.phases.measure_node_cycles = 20000;
  cfg.phases.adaptive_warmup = false;
  const RunResult r = run(cfg);
  // λ/λ_max = 0.25 → Eq.(2) requests 250 MHz → clamp to 333 MHz (level 0).
  EXPECT_NEAR(r.avg_frequency_hz, 333e6, 5e6);
}

TEST(AppGraphLookup, KnownAndUnknownNames) {
  EXPECT_EQ(app_graph("h264").name(), "h264");
  EXPECT_EQ(app_graph("vce").name(), "vce");
  EXPECT_THROW(app_graph("doom"), std::invalid_argument);
}

Scenario app_scenario() {
  Scenario cfg;
  cfg.workload = Scenario::Workload::App;
  cfg.app = "h264";
  return cfg;
}

TEST(AppExperiment, MeanLambdaScalesWithSpeedAndScale) {
  Scenario cfg = app_scenario();
  cfg.speed = 1.0;
  cfg.traffic_scale = 1.0;
  const double base = mean_lambda(cfg);
  EXPECT_GT(base, 0.0);
  cfg.speed = 2.0;
  EXPECT_NEAR(mean_lambda(cfg), 2.0 * base, 1e-12);
  cfg.speed = 1.0;
  cfg.traffic_scale = 3.0;
  EXPECT_NEAR(mean_lambda(cfg), 3.0 * base, 1e-12);
}

TEST(AppExperiment, H264RunsAndDeliversPackets) {
  Scenario cfg = app_scenario();
  cfg.speed = 0.5;
  cfg.packet_size = 8;  // set before deriving the scale: lambda ∝ size
  // Scale the rate matrix so the run carries meaningful load: target a mean
  // offered lambda of ~0.1 at this speed.
  cfg.traffic_scale = 0.1 / mean_lambda(cfg);
  cfg.control_period = 2000;
  cfg.phases.warmup_node_cycles = 20000;
  cfg.phases.measure_node_cycles = 30000;
  cfg.phases.adaptive_warmup = false;
  const RunResult r = run(cfg);
  EXPECT_GT(r.packets_delivered, 100u);
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.measured_offered_lambda, 0.1, 0.03);
}

TEST(AppExperiment, NonUniformLoadShowsInPerNodeTraffic) {
  // The H.264 mapping concentrates traffic on the pipeline nodes; sources
  // off the pipeline (unused node (3,0) = node 3) stay silent.
  Scenario cfg = app_scenario();
  cfg.speed = 0.5;
  cfg.packet_size = 8;
  cfg.traffic_scale = 0.08 / mean_lambda(cfg);
  cfg.control_period = 2000;
  cfg.phases.warmup_node_cycles = 10000;
  cfg.phases.measure_node_cycles = 20000;
  cfg.phases.adaptive_warmup = false;
  const apps::TaskGraph g = app_graph("h264");
  // Build the simulator indirectly: run and inspect that packets were
  // delivered between mapped endpoints only.
  const RunResult r = run(cfg);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_GT(r.avg_hops, 1.0);
  EXPECT_LT(r.avg_hops, 1.0 + g.mean_hops() + 1.0);
}

TEST(Saturation, FinderBracketsKneeOnSmallMesh) {
  Scenario cfg;
  cfg.network.width = 4;
  cfg.network.height = 4;
  cfg.network.num_vcs = 4;
  cfg.packet_size = 8;
  cfg.control_period = 2000;
  SaturationSearchOptions opt;
  opt.warmup_node_cycles = 15000;
  opt.measure_node_cycles = 15000;
  opt.resolution = 0.02;
  const double sat = find_saturation(cfg, opt);
  EXPECT_GT(sat, 0.2);
  EXPECT_LT(sat, 0.9);
  // The knee must actually be a knee: latency at 0.9×sat is finite and the
  // run unsaturated.
  cfg.lambda = 0.9 * sat;
  cfg.policy.policy = Policy::NoDvfs;
  cfg.phases.warmup_node_cycles = 15000;
  cfg.phases.measure_node_cycles = 15000;
  cfg.phases.adaptive_warmup = false;
  EXPECT_FALSE(run(cfg).saturated);
}

TEST(Saturation, ShorterPacketsDoNotLowerTheKnee) {
  Scenario cfg;
  cfg.network.width = 4;
  cfg.network.height = 4;
  cfg.network.num_vcs = 4;
  cfg.control_period = 2000;
  SaturationSearchOptions opt;
  opt.warmup_node_cycles = 12000;
  opt.measure_node_cycles = 12000;
  opt.resolution = 0.03;
  cfg.packet_size = 16;
  const double sat_long = find_saturation(cfg, opt);
  cfg.packet_size = 4;
  const double sat_short = find_saturation(cfg, opt);
  EXPECT_GE(sat_short, sat_long - 0.05);
}

TEST(Saturation, OptionValidation) {
  Scenario cfg;
  SaturationSearchOptions opt;
  opt.lo = 0.5;
  opt.hi = 0.4;
  EXPECT_THROW(find_saturation(cfg, opt), std::invalid_argument);
  opt = SaturationSearchOptions{};
  opt.resolution = 0.0;
  EXPECT_THROW(find_saturation(cfg, opt), std::invalid_argument);
  opt = SaturationSearchOptions{};
  opt.latency_knee_factor = -1.0;
  EXPECT_THROW(find_saturation(cfg, opt), std::invalid_argument);
}

/// Short probes shared by the anchoring tests: they check the procedure's
/// arithmetic, not where saturation lies.
SaturationSearchOptions short_search() {
  SaturationSearchOptions opt;
  opt.warmup_node_cycles = 8000;
  opt.measure_node_cycles = 8000;
  opt.resolution = 0.05;
  return opt;
}

RunPhases short_run_phases() {
  RunPhases phases;
  phases.warmup_node_cycles = 8000;
  phases.measure_node_cycles = 12000;
  phases.adaptive_warmup = false;
  return phases;
}

TEST(Anchors, SyntheticTargetIsTheNoDvfsDelayAtLambdaMax) {
  Scenario cfg;
  cfg.network.width = 4;
  cfg.network.height = 4;
  cfg.network.num_vcs = 4;
  cfg.packet_size = 8;
  cfg.control_period = 2000;
  cfg.phases = short_run_phases();
  const Anchors a = find_anchors(cfg, short_search());
  EXPECT_EQ(a.lambda_sat, a.saturation);
  EXPECT_EQ(a.lambda_max, 0.9 * a.lambda_sat);
  EXPECT_EQ(a.traffic_scale, 0.0);

  // The target is one No-DVFS run at λ_max with the base scenario's phases.
  Scenario probe = cfg;
  probe.lambda = a.lambda_max;
  probe.policy.policy = Policy::NoDvfs;
  EXPECT_EQ(a.target_delay_ns, run(probe).avg_delay_ns);

  const Scenario s = anchored(cfg, a);
  EXPECT_EQ(s.policy.lambda_max, a.lambda_max);
  EXPECT_EQ(s.policy.target_delay_ns, a.target_delay_ns);
  EXPECT_EQ(s.traffic_scale, cfg.traffic_scale);
}

TEST(Anchors, AppLambdaMaxIsALoadAtSpeedOne) {
  Scenario cfg = app_scenario();
  cfg.packet_size = 8;
  cfg.control_period = 2000;
  cfg.phases = short_run_phases();
  const Anchors a = find_anchors(cfg, short_search());
  const Scenario s = anchored(cfg, a);
  EXPECT_EQ(s.speed, 1.0);
  EXPECT_EQ(s.traffic_scale, a.traffic_scale);
  // λ_max is the calibrated scenario's offered load at speed 1.0 — a load
  // in flits/node-cycle, not the saturating speed.
  EXPECT_EQ(a.lambda_max, mean_lambda(s));
  EXPECT_GT(a.lambda_max, 0.0);
  EXPECT_LT(a.lambda_max, 1.0);
  EXPECT_NEAR(a.lambda_max, 0.9 * a.lambda_sat, 1e-12);

  Scenario probe = s;
  probe.policy.policy = Policy::NoDvfs;
  EXPECT_EQ(a.target_delay_ns, run(probe).avg_delay_ns);
}

TEST(Anchors, TraceLambdaMaxIsNineTenthsOfTheSaturatingWarpLoad) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            "nocdvfs_test_anchors.noctrace")
                               .string();
  Scenario rec;
  rec.network.width = 3;
  rec.network.height = 3;
  rec.packet_size = 4;
  rec.lambda = 0.12;
  rec.control_period = 2000;
  rec.phases = short_run_phases();
  rec.policy.policy = Policy::NoDvfs;
  rec.record_path = path;
  run(rec);

  Scenario replay = rec;
  replay.record_path.clear();
  replay.workload = Scenario::Workload::Trace;
  replay.trace_path = path;
  SaturationSearchOptions opt = short_search();
  opt.resolution = 0.25;
  const Anchors a = find_anchors(replay, opt);
  Scenario at_sat = replay;
  at_sat.trace_scale = a.saturation;
  EXPECT_EQ(a.lambda_sat, mean_lambda(at_sat));
  EXPECT_EQ(a.lambda_max, 0.9 * mean_lambda(at_sat));

  // The target probe loops the replay at 0.9 of the saturating warp.
  Scenario probe = replay;
  probe.trace_scale = 0.9 * a.saturation;
  probe.trace_loop = true;
  probe.policy.policy = Policy::NoDvfs;
  EXPECT_EQ(a.target_delay_ns, run(probe).avg_delay_ns);
  std::filesystem::remove(path);
}

TEST(Anchors, CustomWorkloadThrows) {
  Scenario cfg;
  cfg.workload = Scenario::Workload::Custom;
  EXPECT_THROW(find_anchors(cfg, short_search()), std::invalid_argument);
}

// Every key of `s` in its declared text form (doubles in shortest
// round-trip form), so equal lists mean the scenarios agree field for field.
std::vector<std::pair<std::string, std::string>> keys_of(const Scenario& s) {
  common::Config c;
  Scenario::declare_keys(c, s);
  return c.kv_pairs();
}

// operating_point against its definition: anchored, then set_offered_lambda.
Scenario expect_operating_point(const Scenario& base, const Anchors& a, double fraction) {
  Scenario expected = anchored(base, a);
  set_offered_lambda(expected, fraction * a.lambda_sat);
  const Scenario op = operating_point(base, a, fraction);
  EXPECT_EQ(keys_of(op), keys_of(expected));
  return op;
}

Anchors fixed_anchors() {
  Anchors a;
  a.saturation = 0.4;
  a.lambda_sat = 0.4;
  a.lambda_max = 0.36;
  a.target_delay_ns = 123.0;
  return a;
}

TEST(OperatingPoint, SyntheticIsAnchoredThenLoaded) {
  const Anchors a = fixed_anchors();
  const Scenario op = expect_operating_point(Scenario{}, a, 0.6);
  EXPECT_EQ(op.lambda, 0.6 * a.lambda_sat);
  EXPECT_EQ(op.policy.lambda_max, a.lambda_max);
  EXPECT_EQ(op.policy.target_delay_ns, a.target_delay_ns);
}

TEST(OperatingPoint, AppLoadIsSetAfterTheCalibration) {
  Anchors a = fixed_anchors();
  a.traffic_scale = 2.5;  // rescales the field the app's load axis reads
  const Scenario op = expect_operating_point(app_scenario(), a, 0.45);
  EXPECT_EQ(op.traffic_scale, a.traffic_scale);
  const double want = 0.45 * a.lambda_sat;
  EXPECT_NEAR(mean_lambda(op), want, 1e-12 * want);
}

TEST(OperatingPoint, TraceLoadIsTheReplayWarp) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            "nocdvfs_test_operating_point.noctrace")
                               .string();
  Scenario rec;
  rec.network.width = 3;
  rec.network.height = 3;
  rec.packet_size = 4;
  rec.lambda = 0.12;
  rec.phases = short_run_phases();
  rec.record_path = path;
  run(rec);

  Scenario replay = rec;
  replay.record_path.clear();
  replay.workload = Scenario::Workload::Trace;
  replay.trace_path = path;
  const Anchors a = fixed_anchors();
  const Scenario op = expect_operating_point(replay, a, 0.6);
  const double want = 0.6 * a.lambda_sat;
  EXPECT_NEAR(mean_lambda(op), want, 1e-12 * want);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace nocdvfs::sim
