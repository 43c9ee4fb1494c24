// Scenario-layer tests: the declarative experiment value type, its
// two-way common::Config binding, and the workload variants
// (synthetic / app / trace / custom).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "traffic/request_reply.hpp"

namespace nocdvfs::sim {
namespace {

RunPhases short_phases() {
  RunPhases phases;
  phases.warmup_node_cycles = 8000;
  phases.measure_node_cycles = 12000;
  phases.adaptive_warmup = false;
  return phases;
}

Scenario small_synthetic() {
  Scenario s;
  s.network.width = 3;
  s.network.height = 3;
  s.packet_size = 4;
  s.lambda = 0.1;
  s.control_period = 2000;
  s.phases = short_phases();
  return s;
}

bool results_identical(const RunResult& a, const RunResult& b) {
  return a.avg_delay_ns == b.avg_delay_ns && a.packets_delivered == b.packets_delivered &&
         a.avg_latency_cycles == b.avg_latency_cycles &&
         a.avg_frequency_hz == b.avg_frequency_hz && a.power_mw() == b.power_mw() &&
         a.delivered_flits_per_node_cycle == b.delivered_flits_per_node_cycle &&
         a.vf_trace.size() == b.vf_trace.size() &&
         a.window_trace.size() == b.window_trace.size();
}

TEST(ScenarioConfig, DeclareAndFromConfigRoundTrip) {
  Scenario defaults = small_synthetic();
  defaults.pattern = "tornado";
  defaults.policy.policy = Policy::Dmsd;
  defaults.policy.target_delay_ns = 123.5;
  defaults.seed = 9;

  common::Config c;
  Scenario::declare_keys(c, defaults);
  const Scenario round = Scenario::from_config(c);

  EXPECT_EQ(round.workload, Scenario::Workload::Synthetic);
  EXPECT_EQ(round.pattern, "tornado");
  EXPECT_EQ(round.network.width, 3);
  EXPECT_EQ(round.packet_size, 4);
  EXPECT_DOUBLE_EQ(round.lambda, 0.1);
  EXPECT_EQ(round.policy.policy, Policy::Dmsd);
  EXPECT_DOUBLE_EQ(round.policy.target_delay_ns, 123.5);
  EXPECT_EQ(round.control_period, 2000u);
  EXPECT_EQ(round.seed, 9u);
  EXPECT_EQ(round.phases.warmup_node_cycles, 8000u);
  EXPECT_EQ(round.phases.measure_node_cycles, 12000u);
  EXPECT_FALSE(round.phases.adaptive_warmup);

  // Every key, one at a time: a legal non-default value read back by
  // from_config and declared again comes out as the same text.
  const std::map<std::string, std::string> non_default = {
      {"adaptive_warmup", "false"},
      {"app", "vce"},
      {"bufs", "7"},
      {"cdc_sync_cycles", "5"},
      {"concentration", "4"},
      {"control_period", "4096"},
      {"f_node", "1.25e+09"},
      {"fault_seed", "18446744073"},
      {"faults", "links:2@100+routers:1"},
      {"flit_bits", "64"},
      {"height", "7"},
      {"hotspot_fraction", "0.30000000000000004"},
      {"island_map", "0,0,1,1"},
      {"island_policies", "rmsd,dmsd"},
      {"islands", "custom"},
      {"ki", "0.0123456789"},
      {"kp", "1e-05"},
      {"lambda", "0.06983984375"},
      {"lambda_max", "0.3402"},
      {"leak_temp_coeff", "0.035"},
      {"link_latency", "3"},
      {"max_warmup", "4294967301"},
      {"measure", "12345"},
      {"mem", "on"},
      {"occupancy_setpoint", "0.2"},
      {"packet", "65535"},
      {"pattern", "tornado"},
      {"pkt_trace", "on"},
      {"pkt_trace_rate", "16"},
      {"policy", "rmsd-closed"},
      {"process", "onoff"},
      {"prof", "on"},
      {"rc_lateral", "6500.5"},
      {"rc_vertical", "2999.75"},
      {"record", "out.noctrace"},
      {"routing", "ugal"},
      {"seed", "9223372036854775807"},
      {"speed", "1.25"},
      {"target_delay_ns", "102.93750000000001"},
      {"telemetry", "full"},
      {"telemetry_out", "run/base"},
      {"temp_ambient_c", "40.5"},
      {"temp_cap_c", "90"},
      {"temp_hysteresis_c", "2.5"},
      {"thermal", "true"},
      {"thermal_step_ns", "250"},
      {"topology", "dragonfly"},
      {"trace", "in.noctrace"},
      {"trace_loop", "true"},
      {"trace_scale", "1.5"},
      {"traffic_scale", "0.7"},
      {"vcs", "64"},
      {"vf_levels", "6"},
      {"vf_trace_max", "1000"},
      {"warmup", "0"},
      {"width", "9"},
      {"workload", "trace"},
  };
  common::Config all;
  Scenario::declare_keys(all);
  ASSERT_EQ(all.kv_pairs().size(), non_default.size());
  for (const auto& [key, default_text] : all.kv_pairs()) {
    const auto it = non_default.find(key);
    ASSERT_NE(it, non_default.end()) << key;
    ASSERT_NE(it->second, default_text) << key;
    common::Config in;
    Scenario::declare_keys(in);
    in.set(key, it->second);
    common::Config out;
    Scenario::declare_keys(out, Scenario::from_config(in));
    EXPECT_EQ(out.kv_pairs(), in.kv_pairs()) << key;
    all.set(key, it->second);
  }
  common::Config out;
  Scenario::declare_keys(out, Scenario::from_config(all));
  EXPECT_EQ(out.kv_pairs(), all.kv_pairs());
}

TEST(ScenarioConfig, DoublesSurviveTheConfigTextExactly) {
  // A sweep point that six significant digits would round to 0.0698398: the
  // Config text (and with it every manifest) must name the same run.
  Scenario defaults = small_synthetic();
  defaults.lambda = 0.06983984375;
  defaults.policy.target_delay_ns = 102.93750000000001;

  common::Config c;
  Scenario::declare_keys(c, defaults);
  EXPECT_EQ(c.get_string("lambda"), "0.06983984375");
  const Scenario round = Scenario::from_config(c);
  EXPECT_EQ(round.lambda, defaults.lambda);
  EXPECT_EQ(round.policy.target_delay_ns, defaults.policy.target_delay_ns);
}

TEST(ScenarioConfig, KeyValueOverridesReachTheScenario) {
  common::Config c;
  Scenario::declare_keys(c);
  const char* argv[] = {"prog",   "workload=app", "app=vce",    "speed=0.5",
                        "vcs=4",  "policy=QBSD",  "lambda=0.3", "seed=77"};
  c.parse_args(8, argv);
  const Scenario s = Scenario::from_config(c);
  EXPECT_EQ(s.workload, Scenario::Workload::App);
  EXPECT_EQ(s.app, "vce");
  EXPECT_DOUBLE_EQ(s.speed, 0.5);
  EXPECT_EQ(s.network.num_vcs, 4);
  EXPECT_EQ(s.policy.policy, Policy::Qbsd);  // case-insensitive
  EXPECT_DOUBLE_EQ(s.lambda, 0.3);
  EXPECT_EQ(s.seed, 77u);
}

TEST(ScenarioConfig, UnknownWorkloadRejected) {
  common::Config c;
  Scenario::declare_keys(c);
  c.set("workload", "magic");
  EXPECT_THROW(Scenario::from_config(c), std::invalid_argument);
}

/// Values of T just outside [lo, hi], where T can hold them.
template <typename T>
std::vector<T> just_outside(std::int64_t lo, std::int64_t hi) {
  std::vector<T> out;
  if (std::cmp_greater(lo, std::numeric_limits<T>::min())) out.push_back(static_cast<T>(lo - 1));
  if (std::cmp_less(hi, std::numeric_limits<T>::max())) out.push_back(static_cast<T>(hi) + 1);
  return out;
}

TEST(ScenarioConfig, OutOfRangeIntegerKeysAreRejectedNotWrapped) {
  // Every integer key is range-checked before it is narrowed: 2^32 + k
  // must not wrap to k, and -1 must not wrap to a huge count. The error
  // names the key and its range.
  constexpr std::int64_t kWrap = std::int64_t{1} << 32;
  constexpr std::int64_t kInt = std::numeric_limits<int>::max();
  constexpr std::int64_t kI64 = std::numeric_limits<std::int64_t>::max();
  using IntField = int& (*)(Scenario&);
  using CountField = std::uint64_t& (*)(Scenario&);
  struct Range {
    const char* key;
    std::int64_t lo;
    std::int64_t hi;
    std::variant<IntField, CountField> field;
  };
  const Range ranges[] = {
      {"vcs", 1, 64, +[](Scenario& s) -> int& { return s.network.num_vcs; }},
      {"bufs", 1, 255, +[](Scenario& s) -> int& { return s.network.vc_buffer_depth; }},
      {"packet", 1, 65535, +[](Scenario& s) -> int& { return s.packet_size; }},
      {"width", 1, kInt, +[](Scenario& s) -> int& { return s.network.width; }},
      {"height", 1, kInt, +[](Scenario& s) -> int& { return s.network.height; }},
      {"concentration", 1, kInt, +[](Scenario& s) -> int& { return s.network.concentration; }},
      {"link_latency", 1, kInt, +[](Scenario& s) -> int& { return s.network.link_latency; }},
      {"cdc_sync_cycles", 0, kInt,
       +[](Scenario& s) -> int& { return s.network.cdc_sync_cycles; }},
      {"vf_levels", 0, kInt, +[](Scenario& s) -> int& { return s.vf_levels; }},
      {"flit_bits", 1, kInt, +[](Scenario& s) -> int& { return s.flit_bits; }},
      {"pkt_trace_rate", 0, kI64, +[](Scenario& s) -> std::uint64_t& { return s.pkt_trace_rate; }},
      {"fault_seed", 0, kI64,
       +[](Scenario& s) -> std::uint64_t& { return s.network.fault_seed; }},
      {"control_period", 0, kI64, +[](Scenario& s) -> std::uint64_t& { return s.control_period; }},
      {"seed", 0, kI64, +[](Scenario& s) -> std::uint64_t& { return s.seed; }},
      {"vf_trace_max", 0, kI64, +[](Scenario& s) -> std::uint64_t& { return s.vf_trace_max; }},
      {"warmup", 0, kI64,
       +[](Scenario& s) -> std::uint64_t& { return s.phases.warmup_node_cycles; }},
      {"measure", 0, kI64,
       +[](Scenario& s) -> std::uint64_t& { return s.phases.measure_node_cycles; }},
      {"max_warmup", 0, kI64,
       +[](Scenario& s) -> std::uint64_t& { return s.phases.max_warmup_node_cycles; }},
  };
  for (const Range& r : ranges) {
    std::string range = "[";
    range += std::to_string(r.lo) + ", " + std::to_string(r.hi) + "]";
    const auto expect_names_key_and_range = [&](const std::string& msg) {
      EXPECT_NE(msg.find(std::string("'") + r.key + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find(range), std::string::npos) << msg;
    };
    for (const std::int64_t v : {kWrap + 4, kWrap + 8, std::int64_t{-1}, r.lo, r.hi}) {
      common::Config c;
      Scenario::declare_keys(c);
      c.set(r.key, std::to_string(v));
      if (v >= r.lo && v <= r.hi) {
        EXPECT_NO_THROW((void)Scenario::from_config(c)) << r.key << "=" << v;
        continue;
      }
      try {
        (void)Scenario::from_config(c);
        ADD_FAILURE() << r.key << "=" << v << " was accepted";
      } catch (const std::invalid_argument& e) {
        expect_names_key_and_range(e.what());
      }
    }
    // The same range holds on a Scenario built in code: make_simulator and
    // SweepRunner::run both reject it instead of narrowing it on the way.
    std::visit(
        [&](auto field) {
          using T = std::remove_reference_t<decltype(field(std::declval<Scenario&>()))>;
          for (const T v : just_outside<T>(r.lo, r.hi)) {
            Scenario s = small_synthetic();
            field(s) = v;
            try {
              (void)make_simulator(s);
              ADD_FAILURE() << r.key << "=" << v << " was built";
            } catch (const std::invalid_argument& e) {
              expect_names_key_and_range(e.what());
            }
            try {
              (void)SweepRunner().run(s, {});
              ADD_FAILURE() << r.key << "=" << v << " was swept";
            } catch (const std::invalid_argument& e) {
              expect_names_key_and_range(e.what());
            }
          }
        },
        r.field);
  }
  // In range, a 64-bit count is read exactly (no 32-bit truncation).
  common::Config c;
  Scenario::declare_keys(c);
  c.set("warmup", std::to_string(kWrap + 5));
  EXPECT_EQ(Scenario::from_config(c).phases.warmup_node_cycles,
            static_cast<std::uint64_t>(kWrap + 5));
}

TEST(ScenarioRun, RerunIsBitIdentical) {
  Scenario s = small_synthetic();
  s.policy.policy = Policy::Rmsd;
  s.policy.lambda_max = 0.4;
  const RunResult a = run(s);
  const RunResult b = run(s);
  EXPECT_TRUE(results_identical(a, b));
}

TEST(ScenarioConfig, TraceAndRecordKeysRoundTrip) {
  common::Config c;
  Scenario::declare_keys(c);
  const char* argv[] = {"prog", "workload=trace", "trace=run.noctrace",
                        "trace_scale=1.5", "trace_loop=1", "record=out.noctrace"};
  c.parse_args(6, argv);
  const Scenario s = Scenario::from_config(c);
  EXPECT_EQ(s.workload, Scenario::Workload::Trace);
  EXPECT_EQ(s.trace_path, "run.noctrace");
  EXPECT_DOUBLE_EQ(s.trace_scale, 1.5);
  EXPECT_TRUE(s.trace_loop);
  EXPECT_EQ(s.record_path, "out.noctrace");
}

TEST(ScenarioRun, TraceWorkloadWithoutPathThrows) {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::Trace;
  EXPECT_THROW(run(s), std::invalid_argument);
  EXPECT_THROW(mean_lambda(s), std::invalid_argument);
}

TEST(ScenarioRun, CustomWorkloadRunsThroughFactory) {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::Custom;
  s.traffic_factory = [](const Scenario& sc) -> std::unique_ptr<traffic::TrafficModel> {
    noc::MeshTopology topo(sc.network.width, sc.network.height);
    traffic::RequestReplyParams rr;
    rr.request_rate = 0.01;
    rr.seed = sc.seed;
    return std::make_unique<traffic::RequestReplyTraffic>(topo, rr);
  };
  const RunResult r = run(s);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_GT(r.class1_packets, 0u);  // replies flowed, so the factory was honored
}

TEST(ScenarioRun, CustomWorkloadWithoutFactoryThrows) {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::Custom;
  EXPECT_THROW(run(s), std::invalid_argument);
}

/// The problem scenario_problem reports, which must mention `needle`.
void expect_problem_naming(const Scenario& s, const std::string& needle) {
  const std::string problem = scenario_problem(s);
  EXPECT_NE(problem.find(needle), std::string::npos) << "problem: '" << problem << "'";
}

TEST(ScenarioValidation, UnknownPatternIsAProblem) {
  Scenario s = small_synthetic();
  s.pattern = "nosuch";
  expect_problem_naming(s, "unknown pattern 'nosuch'");
  // Inert outside the synthetic workload.
  s.workload = Scenario::Workload::App;
  EXPECT_EQ(scenario_problem(s), "");
}

TEST(ScenarioValidation, UnknownInjectionProcessIsAProblem) {
  Scenario s = small_synthetic();
  s.process = "nosuch";
  expect_problem_naming(s, "unknown kind 'nosuch'");
  s.process = "onoff";
  EXPECT_EQ(scenario_problem(s), "");
}

TEST(ScenarioValidation, UnknownIslandNamesNameTheirKey) {
  Scenario s = small_synthetic();
  s.islands = "nosuch";
  expect_problem_naming(s, "islands: unknown island layout 'nosuch'");
  s.islands = "rows";  // 3 islands on the 3x3 mesh
  s.island_policies = "rmsd,nosuch,dmsd";
  expect_problem_naming(s, "island_policies: unknown policy 'nosuch'");
  s.island_policies = "rmsd,qbsd,dmsd";
  EXPECT_EQ(scenario_problem(s), "");
}

TEST(ScenarioValidation, UnopenableTraceIsAProblem) {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::Trace;
  s.trace_path = (std::filesystem::temp_directory_path() / "nocdvfs_no_such_trace.noctrace")
                     .string();
  std::filesystem::remove(s.trace_path);
  expect_problem_naming(s, s.trace_path);
  EXPECT_THROW(make_simulator(s), std::invalid_argument);
}

TEST(ScenarioMeanLambda, PerWorkloadSemantics) {
  Scenario s = small_synthetic();
  EXPECT_DOUBLE_EQ(mean_lambda(s), s.lambda);

  s.workload = Scenario::Workload::App;
  s.app = "h264";
  s.speed = 1.0;
  s.traffic_scale = 1.0;
  const double base = mean_lambda(s);
  EXPECT_GT(base, 0.0);
  s.speed = 2.0;
  EXPECT_NEAR(mean_lambda(s), 2.0 * base, 1e-12);

  s.workload = Scenario::Workload::Custom;
  EXPECT_THROW(mean_lambda(s), std::invalid_argument);
}

/// A small 3×3 capture for the trace load axis, recorded at λ = 0.1.
std::string record_small_capture(const std::string& name) {
  const std::string path = (std::filesystem::temp_directory_path() / name).string();
  Scenario rec = small_synthetic();
  rec.record_path = path;
  run(rec);
  return path;
}

Scenario replay_of(const std::string& path) {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::Trace;
  s.trace_path = path;
  s.trace_loop = true;
  return s;
}

Scenario small_app() {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::App;
  s.app = "h264";
  return s;
}

TEST(LoadAxis, SyntheticSetterWritesLambdaBitForBit) {
  for (const double v : {0.06862760416666666, 0.1, 0.3, 1e-300}) {
    Scenario s = small_synthetic();
    set_offered_lambda(s, v);
    EXPECT_EQ(s.lambda, v);
    EXPECT_EQ(mean_lambda(s), v);
  }
  EXPECT_STREQ(load_axis(small_synthetic()).name, "lambda");
}

TEST(LoadAxis, SetterThenMeanLambdaRoundTripsOnEveryDeclarativeWorkload) {
  const std::string path = record_small_capture("nocdvfs_test_load_axis.noctrace");
  const std::vector<std::pair<Scenario, const char*>> workloads = {
      {small_synthetic(), "lambda"}, {small_app(), "speed"}, {replay_of(path), "trace_scale"}};
  for (const auto& [base, field] : workloads) {
    EXPECT_STREQ(load_axis(base).name, field);
    for (const double lambda : {0.01, 0.06862760416666666, 0.3}) {
      Scenario s = base;
      set_offered_lambda(s, lambda);
      EXPECT_NEAR(mean_lambda(s), lambda, 1e-12 * lambda) << field << " at " << lambda;
    }
  }
  std::filesystem::remove(path);
}

TEST(LoadAxis, AppSetterReadsTheCalibratedScale) {
  // The axis reads traffic_scale: set the load after anchored() rescales it.
  Scenario s = small_app();
  s.traffic_scale = 3.0;
  set_offered_lambda(s, 0.2);
  EXPECT_NEAR(mean_lambda(s), 0.2, 1e-12 * 0.2);
  s.traffic_scale = 0.0;
  EXPECT_THROW(set_offered_lambda(s, 0.2), std::invalid_argument);
}

TEST(LoadAxis, CustomWorkloadThrowsNamingTheWorkload) {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::Custom;
  try {
    set_offered_lambda(s, 0.1);
    FAIL() << "custom workloads have no declarative load axis";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("workload=custom"), std::string::npos) << e.what();
  }
  EXPECT_THROW(SweepRunner::expand(s, {SweepAxis::lambda({0.1})}), std::invalid_argument);
}

TEST(LoadAxis, LambdaSweepRunsAppAndTracePointsAtTheirLabels) {
  const std::string path = record_small_capture("nocdvfs_test_load_sweep.noctrace");
  for (const Scenario& base : {small_app(), replay_of(path)}) {
    const auto points = SweepRunner::expand(base, {SweepAxis::lambda({0.05, 0.15})});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_NE(mean_lambda(points[0].scenario), mean_lambda(points[1].scenario));
    for (const SweepPoint& p : points) {
      const double label = std::stod(p.coordinates[0]);
      EXPECT_NEAR(mean_lambda(p.scenario), label, 1e-12 * label) << to_string(base.workload);
    }
  }
  std::filesystem::remove(path);
}

TEST(ScenarioSimulator, MakeSimulatorExposesComposition) {
  const Scenario s = small_synthetic();
  const auto simulator = make_simulator(s);
  ASSERT_NE(simulator, nullptr);
  EXPECT_EQ(simulator->config().network.width, 3);
  EXPECT_EQ(simulator->config().control_period_node_cycles, 2000u);
}

// Scenario::network is the only copy of the network settings: what a
// caller sets there is what the simulator builds.

TEST(ScenarioNetwork, CdcSyncCyclesReachTheNetwork) {
  Scenario s = small_synthetic();
  s.network.width = 4;
  s.network.height = 4;
  s.islands = "quadrants";
  s.policy.policy = Policy::NoDvfs;
  const RunResult synced = run(s);
  ASSERT_EQ(s.network.cdc_sync_cycles, 2);
  s.network.cdc_sync_cycles = 0;
  const RunResult unsynced = run(s);
  EXPECT_GT(unsynced.packets_delivered, 0u);
  EXPECT_NE(unsynced.avg_delay_ns, synced.avg_delay_ns);
}

TEST(ScenarioNetwork, SkipIdleOffReachesTheNetwork) {
  Scenario s = small_synthetic();
  EXPECT_TRUE(make_simulator(s)->network().skip_idle());
  s.network.skip_idle = false;
  EXPECT_FALSE(make_simulator(s)->network().skip_idle());
}

TEST(ScenarioNetwork, CdcKeyReadsIntoNetworkAndSkipIdleKeyIsGone) {
  common::Config c;
  Scenario::declare_keys(c);
  const char* cdc[] = {"prog", "cdc_sync_cycles=5"};
  c.parse_args(2, cdc);
  EXPECT_EQ(Scenario::from_config(c).network.cdc_sync_cycles, 5);

  const char* skip[] = {"prog", "skip_idle=0"};
  try {
    c.parse_args(2, skip);
    FAIL() << "skip_idle= was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'skip_idle'"), std::string::npos)
        << e.what();
  }
}

/// Every run records its latency histograms, so there is no switch left.
TEST(ScenarioConfig, HistKeyIsGone) {
  common::Config c;
  Scenario::declare_keys(c);
  const char* hist[] = {"prog", "hist=on"};
  try {
    c.parse_args(2, hist);
    FAIL() << "hist= was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Config: unknown key 'hist'"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace nocdvfs::sim
