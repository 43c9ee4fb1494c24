// Integration tests: the paper's qualitative claims reproduced on a small,
// fast configuration (4×4 mesh, 8-flit packets, 2 000-cycle control
// period). Results for each (policy, λ) point are computed once and cached
// across tests.
//
// The behaviours under test are the paper's shape criteria (its Figs. 2,
// 4 and 6):
//   * No-DVFS latency grows monotonically with load;
//   * RMSD holds the NoC at λ_max: constant latency-in-cycles inside
//     [λ_min, λ_max], frequency follows Eq. (2), and the real-time delay is
//     non-monotonic with its peak at λ_min (Fig. 2);
//   * DMSD tracks the target delay (Fig. 4) with a PI loop;
//   * power ranks P_RMSD ≤ P_DMSD ≤ P_NoDVFS (Fig. 6);
//   * delivered throughput matches offered load for every policy below
//     saturation (DVFS must not cost throughput).

#include <gtest/gtest.h>

#include <map>

#include "sim/scenario.hpp"

namespace nocdvfs::sim {
namespace {

constexpr double kLambdaMax = 0.45;
constexpr double kFnode = 1e9;

Scenario base_config() {
  Scenario cfg;
  cfg.network.width = 4;
  cfg.network.height = 4;
  cfg.network.num_vcs = 4;
  cfg.network.vc_buffer_depth = 4;
  cfg.packet_size = 8;
  cfg.pattern = "uniform";
  cfg.control_period = 2000;
  cfg.policy.lambda_max = kLambdaMax;
  cfg.phases.warmup_node_cycles = 60000;
  cfg.phases.measure_node_cycles = 60000;
  cfg.phases.max_warmup_node_cycles = 300000;
  cfg.seed = 17;
  return cfg;
}

/// DMSD target: the No-DVFS delay at λ_max, which is RMSD's delay there
/// (RMSD holds delay in NoC cycles, so below λ_max its ns delay grows) —
/// measured once (the paper's procedure for its Fig. 4).
double dmsd_target_ns() {
  static const double target = [] {
    Scenario cfg = base_config();
    cfg.lambda = kLambdaMax;
    cfg.policy.policy = Policy::NoDvfs;
    return run(cfg).avg_delay_ns;
  }();
  return target;
}

const RunResult& cached_run(Policy policy, double lambda) {
  static std::map<std::pair<int, int>, RunResult> cache;
  const auto key = std::make_pair(static_cast<int>(policy),
                                  static_cast<int>(lambda * 1000 + 0.5));
  auto it = cache.find(key);
  if (it == cache.end()) {
    Scenario cfg = base_config();
    cfg.lambda = lambda;
    cfg.policy.policy = policy;
    cfg.policy.target_delay_ns = dmsd_target_ns();
    it = cache.emplace(key, run(cfg)).first;
  }
  return it->second;
}

TEST(Integration, NoDvfsLatencyMonotoneInLoad) {
  const double lambdas[] = {0.05, 0.15, 0.25, 0.35};
  double prev = 0.0;
  for (double l : lambdas) {
    const auto& r = cached_run(Policy::NoDvfs, l);
    EXPECT_GT(r.avg_latency_cycles, prev) << "lambda " << l;
    prev = r.avg_latency_cycles;
  }
}

TEST(Integration, NoDvfsRunsAtFmaxAndVnom) {
  const auto& r = cached_run(Policy::NoDvfs, 0.2);
  EXPECT_NEAR(r.avg_frequency_hz, 1e9, 1e6);
  EXPECT_NEAR(r.avg_voltage, 0.9, 1e-3);
}

TEST(Integration, RmsdFrequencyFollowsEq2) {
  // Inside [λ_min, λ_max] = [0.15, 0.45]: F = F_node·λ/λ_max.
  for (double l : {0.2, 0.3}) {
    const auto& r = cached_run(Policy::Rmsd, l);
    EXPECT_NEAR(r.avg_frequency_hz, kFnode * l / kLambdaMax, 0.05 * kFnode) << "lambda " << l;
  }
  // Below λ_min the clock clips to F_min.
  const auto& low = cached_run(Policy::Rmsd, 0.05);
  EXPECT_NEAR(low.avg_frequency_hz, 333e6, 10e6);
}

TEST(Integration, RmsdLatencyCyclesConstantOnPlateau) {
  // The defining RMSD property (paper Fig. 2a): λ_noc pinned at λ_max makes
  // latency in NoC cycles load-independent inside [λ_min, λ_max].
  const auto& a = cached_run(Policy::Rmsd, 0.2);
  const auto& b = cached_run(Policy::Rmsd, 0.3);
  EXPECT_NEAR(a.avg_latency_cycles / b.avg_latency_cycles, 1.0, 0.30);
  // And both are far above the zero-load latency.
  const auto& zero = cached_run(Policy::NoDvfs, 0.05);
  EXPECT_GT(a.avg_latency_cycles, 1.5 * zero.avg_latency_cycles);
}

TEST(Integration, RmsdDelayIsNonMonotone) {
  // Paper Fig. 2b: delay rises on [0, λ_min) (fixed F_min, growing load),
  // peaks at λ_min = λ_max/3 = 0.15, then falls towards λ_max.
  const double peak = cached_run(Policy::Rmsd, 0.15).avg_delay_ns;
  const double left = cached_run(Policy::Rmsd, 0.05).avg_delay_ns;
  const double right = cached_run(Policy::Rmsd, 0.4).avg_delay_ns;
  EXPECT_GT(peak, left) << "delay must increase towards the lambda_min knee";
  EXPECT_GT(peak, 1.5 * right) << "delay must fall past the knee";
}

TEST(Integration, RmsdDelayPeakDwarfsNoDvfsDelay) {
  // The paper reports a ≈9× gap at the peak; require at least 3× on this
  // small configuration.
  const double peak = cached_run(Policy::Rmsd, 0.15).avg_delay_ns;
  const double nodvfs = cached_run(Policy::NoDvfs, 0.15).avg_delay_ns;
  EXPECT_GT(peak, 3.0 * nodvfs);
}

TEST(Integration, DmsdTracksTargetDelay) {
  const double target = dmsd_target_ns();
  for (double l : {0.2, 0.3}) {
    const auto& r = cached_run(Policy::Dmsd, l);
    EXPECT_NEAR(r.avg_delay_ns, target, 0.3 * target) << "lambda " << l;
  }
}

TEST(Integration, DmsdFrequencyBetweenRmsdAndFmax) {
  // Fig. 4(a): F_RMSD ≤ F_DMSD ≤ F_max.
  for (double l : {0.2, 0.3}) {
    const auto& rmsd = cached_run(Policy::Rmsd, l);
    const auto& dmsd = cached_run(Policy::Dmsd, l);
    EXPECT_LE(rmsd.avg_frequency_hz, dmsd.avg_frequency_hz * 1.05) << "lambda " << l;
    EXPECT_LE(dmsd.avg_frequency_hz, 1e9 + 1e3);
  }
}

TEST(Integration, PowerOrderingRmsdDmsdNoDvfs) {
  // Fig. 6: P_RMSD ≤ P_DMSD ≤ P_NoDVFS with real gaps. The DMSD saving
  // narrows as the load climbs towards λ_max (the controller must run
  // nearly as fast as F_max), so the substantial-saving bar applies at the
  // mid load only.
  for (double l : {0.2, 0.3}) {
    const double p_rmsd = cached_run(Policy::Rmsd, l).power_mw();
    const double p_dmsd = cached_run(Policy::Dmsd, l).power_mw();
    const double p_none = cached_run(Policy::NoDvfs, l).power_mw();
    EXPECT_LT(p_rmsd, p_dmsd * 1.02) << "lambda " << l;
    EXPECT_LT(p_dmsd, p_none) << "lambda " << l;
  }
  EXPECT_GT(cached_run(Policy::NoDvfs, 0.2).power_mw(),
            1.4 * cached_run(Policy::Dmsd, 0.2).power_mw());
  EXPECT_GT(cached_run(Policy::NoDvfs, 0.3).power_mw(),
            1.1 * cached_run(Policy::Dmsd, 0.3).power_mw());
}

TEST(Integration, DelayPenaltyExceedsPowerAdvantage) {
  // The paper's headline trade-off at mid load: RMSD's delay penalty over
  // DMSD (×) is larger than its power advantage (×).
  const auto& rmsd = cached_run(Policy::Rmsd, 0.2);
  const auto& dmsd = cached_run(Policy::Dmsd, 0.2);
  const double delay_ratio = rmsd.avg_delay_ns / dmsd.avg_delay_ns;
  const double power_ratio = dmsd.power_mw() / rmsd.power_mw();
  EXPECT_GT(delay_ratio, power_ratio);
  EXPECT_GT(delay_ratio, 1.3);
}

TEST(Integration, ThroughputMatchesOfferedForAllPolicies) {
  for (const Policy p : {Policy::NoDvfs, Policy::Rmsd, Policy::Dmsd}) {
    for (double l : {0.1, 0.3}) {
      const auto& r = cached_run(p, l);
      EXPECT_FALSE(r.saturated) << to_string(p) << " lambda " << l;
      EXPECT_NEAR(r.delivered_flits_per_node_cycle, l, 0.05 * l)
          << to_string(p) << " lambda " << l;
    }
  }
}

TEST(Integration, SaturationDetectedAtOverload) {
  Scenario cfg = base_config();
  cfg.lambda = 0.95;
  cfg.policy.policy = Policy::NoDvfs;
  cfg.phases.warmup_node_cycles = 20000;
  cfg.phases.measure_node_cycles = 30000;
  cfg.phases.adaptive_warmup = false;
  const RunResult r = run(cfg);
  EXPECT_TRUE(r.saturated);
  EXPECT_LT(r.delivered_flits_per_node_cycle, 0.95 * 0.95);
}

TEST(Integration, DeterministicForEqualSeeds) {
  Scenario cfg = base_config();
  cfg.lambda = 0.2;
  cfg.policy.policy = Policy::Dmsd;
  cfg.policy.target_delay_ns = 120.0;
  const RunResult a = run(cfg);
  const RunResult b = run(cfg);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_DOUBLE_EQ(a.avg_delay_ns, b.avg_delay_ns);
  EXPECT_DOUBLE_EQ(a.power.total_j(), b.power.total_j());

  cfg.seed = 18;
  const RunResult c = run(cfg);
  EXPECT_NE(a.packets_delivered, c.packets_delivered);
  EXPECT_NEAR(c.avg_delay_ns, a.avg_delay_ns, 0.25 * a.avg_delay_ns)
      << "different seeds: same physics, different noise";
}

TEST(Integration, VfTraceRecordsControllerActivity) {
  const auto& r = cached_run(Policy::Rmsd, 0.2);
  EXPECT_FALSE(r.vf_trace.empty());
  EXPECT_GT(r.avg_voltage, 0.55);
  EXPECT_LT(r.avg_voltage, 0.91);
  EXPECT_NEAR(r.final_frequency_hz, r.avg_frequency_hz, 0.1 * r.avg_frequency_hz);
}

TEST(Integration, ControllerSettledFlagSet) {
  EXPECT_TRUE(cached_run(Policy::Dmsd, 0.2).controller_settled);
  EXPECT_TRUE(cached_run(Policy::Rmsd, 0.2).controller_settled);
}

TEST(Integration, OnOffTrafficKeepsTradeOffDirection) {
  // Bursty traffic (extension beyond the paper): ordering must persist.
  Scenario cfg = base_config();
  cfg.process = "onoff";
  cfg.lambda = 0.15;
  cfg.policy.target_delay_ns = dmsd_target_ns();

  cfg.policy.policy = Policy::Rmsd;
  const RunResult rmsd = run(cfg);
  cfg.policy.policy = Policy::Dmsd;
  const RunResult dmsd = run(cfg);
  cfg.policy.policy = Policy::NoDvfs;
  const RunResult none = run(cfg);

  EXPECT_LT(rmsd.power_mw(), none.power_mw());
  EXPECT_LT(dmsd.power_mw(), none.power_mw());
  EXPECT_GT(rmsd.avg_delay_ns, dmsd.avg_delay_ns);
}

}  // namespace
}  // namespace nocdvfs::sim
