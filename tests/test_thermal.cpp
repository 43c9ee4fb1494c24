// Thermal subsystem tests: the RC network's physics (steady state,
// monotone heating, symmetry, stability-bound enforcement), the
// Arrhenius-style temperature-dependent leakage, the hysteretic
// ThermalGuard and the DvfsManager frequency cap, per-tile power
// attribution, and whole-simulator runs with the feedback loop closed —
// including the hard invariant that thermal=off reproduces the
// temperature-blind simulator bit-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "dvfs/controller.hpp"
#include "dvfs/dvfs_manager.hpp"
#include "dvfs/thermal_guard.hpp"
#include "power/energy_model.hpp"
#include "power/power_model.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "thermal/thermal_model.hpp"

namespace nocdvfs {
namespace {

using common::Picoseconds;
using thermal::ThermalModel;
using thermal::ThermalParams;

// ---------------------------------------------------------------------------
// ThermalModel: RC network physics
// ---------------------------------------------------------------------------

ThermalParams fast_params() {
  ThermalParams p;  // defaults, but no leakage feedback unless a test wants it
  p.leak_temp_coeff_per_k = 0.0;
  return p;
}

TEST(ThermalModel, ZeroPowerStaysAtAmbient) {
  ThermalModel m(3, 3, fast_params(), 1'000'000);
  const std::vector<double> zero(9, 0.0);
  m.advance(500'000'000, zero, zero);  // 500 us
  for (int t = 0; t < 9; ++t) EXPECT_DOUBLE_EQ(m.tile_temp_c(t), 45.0) << "tile " << t;
  EXPECT_DOUBLE_EQ(m.spreader_temp_c(), 45.0);
}

TEST(ThermalModel, SingleTileReachesAnalyticSteadyState) {
  // A 1x1 mesh is a plain series RC chain: tile --R_v-- spreader --R_spr--
  // ambient, so T_tile(inf) = ambient + P*(R_v + R_spr).
  ThermalParams p = fast_params();
  ThermalModel m(1, 1, p, 1'000'000);
  const std::vector<double> drive{0.010};  // 10 mW
  const std::vector<double> zero{0.0};
  m.advance(2'000'000'000, drive, zero);  // 2 ms >> all time constants
  const double expect = p.ambient_c + 0.010 * (p.rc_vertical_k_per_w + p.r_spreader_k_per_w);
  EXPECT_NEAR(m.tile_temp_c(0), expect, 0.01 * (expect - p.ambient_c));
  EXPECT_NEAR(m.spreader_temp_c(), p.ambient_c + 0.010 * p.r_spreader_k_per_w, 0.05);
}

TEST(ThermalModel, HeatingIsMonotoneTowardsSteadyState) {
  ThermalModel m(1, 1, fast_params(), 1'000'000);
  const std::vector<double> drive{0.010};
  const std::vector<double> zero{0.0};
  double prev = m.tile_temp_c(0);
  for (int step = 1; step <= 50; ++step) {
    m.advance(static_cast<Picoseconds>(step) * 10'000'000, drive, zero);  // +10 us
    const double now = m.tile_temp_c(0);
    EXPECT_GT(now, prev) << "step " << step;
    prev = now;
  }
}

TEST(ThermalModel, UniformPowerEqualizesTiles) {
  // Every tile has the same drive and the same vertical path into one
  // shared spreader, so lateral flows vanish by symmetry and all tiles
  // settle at exactly the same temperature — above ambient.
  ThermalModel m(3, 3, fast_params(), 1'000'000);
  const std::vector<double> drive(9, 0.005);
  const std::vector<double> zero(9, 0.0);
  m.advance(1'000'000'000, drive, zero);
  for (int t = 1; t < 9; ++t) EXPECT_DOUBLE_EQ(m.tile_temp_c(t), m.tile_temp_c(0));
  EXPECT_GT(m.tile_temp_c(0), fast_params().ambient_c + 1.0);
}

TEST(ThermalModel, LateralConductanceSpreadsAHotspot) {
  ThermalModel m(3, 1, fast_params(), 1'000'000);
  const std::vector<double> drive{0.0, 0.012, 0.0};  // center tile only
  const std::vector<double> zero(3, 0.0);
  m.advance(1'000'000'000, drive, zero);
  EXPECT_GT(m.tile_temp_c(1), m.tile_temp_c(0));
  EXPECT_GT(m.tile_temp_c(0), fast_params().ambient_c);  // neighbours warmed laterally
  EXPECT_DOUBLE_EQ(m.tile_temp_c(0), m.tile_temp_c(2));
}

TEST(ThermalModel, StabilityBoundIsEnforcedWithMessage) {
  const ThermalParams p = fast_params();
  const double bound_s = ThermalModel::stability_bound_s(5, 5, p);
  const auto bound_ps = static_cast<Picoseconds>(bound_s * 1e12);
  EXPECT_NO_THROW(ThermalModel(5, 5, p, bound_ps - 1000));
  try {
    ThermalModel m(5, 5, p, 2 * bound_ps);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stability bound"), std::string::npos);
  }
  EXPECT_THROW(ThermalModel(0, 3, p, 1000), std::invalid_argument);
  ThermalParams bad = p;
  bad.c_tile_j_per_k = 0.0;
  EXPECT_THROW(ThermalModel(3, 3, bad, 1000), std::invalid_argument);
}

TEST(ThermalModel, LeakageEnergyMatchesNominalWithoutTemperatureFeedback) {
  // With k = 0 the charged leakage equals nominal power x time exactly,
  // and the "reference" counter agrees with the resolved one.
  ThermalModel m(2, 2, fast_params(), 1'000'000);
  const std::vector<double> zero(4, 0.0);
  const std::vector<double> leak(4, 0.002);
  m.advance(100'000'000, zero, leak);  // 100 us
  for (int t = 0; t < 4; ++t) {
    EXPECT_NEAR(m.tile_leakage_j()[static_cast<std::size_t>(t)], 0.002 * 100e-6, 1e-12);
    EXPECT_DOUBLE_EQ(m.tile_leakage_j()[static_cast<std::size_t>(t)],
                     m.tile_leakage_ref_j()[static_cast<std::size_t>(t)]);
  }
}

TEST(ThermalModel, HotTilesLeakMoreThanReference) {
  ThermalParams p = fast_params();
  p.leak_temp_coeff_per_k = 0.04;
  ThermalModel m(1, 1, p, 1'000'000);
  // ~20 K steady-state rise: comfortably inside the regenerative-feedback
  // stability region (R·P_leak·k·exp(k·dT) << 1).
  const std::vector<double> drive{0.005};
  const std::vector<double> leak{0.0005};
  m.advance(500'000'000, drive, leak);
  EXPECT_GT(m.tile_leakage_j()[0], m.tile_leakage_ref_j()[0]);
  // The resolved energy must exceed the reference materially, not by
  // epsilon (exp(0.04 * ~20 K) is >2 at steady state).
  EXPECT_GT(m.tile_leakage_j()[0], 1.2 * m.tile_leakage_ref_j()[0]);
}

TEST(ThermalModel, RegenerativeRunawayStaysFiniteAtTheScaleCeiling) {
  // Past the point where R·P_leak·k·exp(k·dT) > 1 the network has no
  // finite fixed point; the documented kMaxLeakTempScale ceiling keeps the
  // integration finite (and obviously out of any throttle band) instead
  // of overflowing to inf.
  ThermalParams p = fast_params();
  p.leak_temp_coeff_per_k = 0.04;
  ThermalModel m(1, 1, p, 1'000'000);
  const std::vector<double> drive{0.010};
  const std::vector<double> leak{0.005};  // regenerative at this R
  m.advance(2'000'000'000, drive, leak);
  EXPECT_TRUE(std::isfinite(m.tile_temp_c(0)));
  EXPECT_TRUE(std::isfinite(m.tile_leakage_j()[0]));
  // Bounded by the ceiling's fixed point: ambient + R·(P_dyn + 32·P_leak).
  const double r_total = p.rc_vertical_k_per_w + p.r_spreader_k_per_w;
  EXPECT_LT(m.tile_temp_c(0), p.ambient_c + r_total * (0.010 + 32.0 * 0.005) + 1.0);
  EXPECT_GT(m.tile_temp_c(0), 200.0);  // far beyond any operating point
}

TEST(ThermalModel, WindowStatsTrackPeakAndReset) {
  ThermalModel m(2, 1, fast_params(), 1'000'000);
  const std::vector<double> drive{0.010, 0.0};
  const std::vector<double> zero(2, 0.0);
  m.advance(200'000'000, drive, zero);
  const double hot = m.tile_temp_c(0);
  EXPECT_NEAR(m.window_peak_c(), hot, 1e-9);
  // Cooling: stats reset re-bases the peak at the current temperature.
  m.reset_stats();
  m.advance(400'000'000, zero, zero);
  EXPECT_NEAR(m.window_peak_c(), hot, 1e-9);  // peak was at the reset instant
  EXPECT_LT(m.tile_temp_c(0), hot);
  EXPECT_LT(m.window_mean_c(), hot);
}

// ---------------------------------------------------------------------------
// EnergyModel: Arrhenius-style leakage scale
// ---------------------------------------------------------------------------

TEST(EnergyModelThermal, TemperatureScaleAnchorsAndDoubling) {
  const power::EnergyModel m(power::EnergyModel::reference_geometry());
  const double t_ref_k = 45.0 + common::kCelsiusToKelvinOffset;
  // At the reference temperature the overloads agree exactly.
  EXPECT_DOUBLE_EQ(m.leakage_scale(0.9, t_ref_k), m.leakage_scale(0.9));
  EXPECT_DOUBLE_EQ(m.leakage_scale(0.56, t_ref_k), m.leakage_scale(0.56));
  // Default coefficient 0.04/K doubles leakage every ln2/0.04 K.
  const double doubling_k = std::log(2.0) / 0.04;
  EXPECT_NEAR(m.leakage_scale(0.9, t_ref_k + doubling_k), 2.0 * m.leakage_scale(0.9), 1e-9);
  // And halves it the same distance below.
  EXPECT_NEAR(m.leakage_scale(0.9, t_ref_k - doubling_k), 0.5 * m.leakage_scale(0.9), 1e-9);
  // Voltage and temperature factors compose multiplicatively.
  EXPECT_NEAR(m.leakage_scale(0.56, t_ref_k + doubling_k), 2.0 * m.leakage_scale(0.56), 1e-9);
}

// ---------------------------------------------------------------------------
// TilePowerAccumulator: per-tile attribution
// ---------------------------------------------------------------------------

TEST(TilePowerAccumulator, TileEnergiesSumToAggregateAccumulator) {
  const power::EnergyModel m(power::EnergyModel::reference_geometry());
  // Two tiles that together form the inventory {2 routers, 3 links, 4 locals}.
  std::vector<power::TileInventory> tiles{{1, 1, 2}, {1, 2, 2}};
  power::TilePowerAccumulator tile_acc(m, tiles);
  power::PowerAccumulator agg(m, power::NetworkInventory{2, 3, 4});

  std::vector<power::ActivityCounters> a0(2);
  std::vector<std::uint64_t> c0{0, 0};
  tile_acc.start(0, a0, c0);
  agg.start(0, a0[0] + a0[1], 0, 0.8, 8e8);

  std::vector<power::ActivityCounters> a1(2);
  a1[0].buffer_writes = 500;
  a1[1].crossbar_traversals = 300;
  std::vector<std::uint64_t> c1{800, 800};
  tile_acc.sample(1'000'000, a1, c1, {0.8, 0.8}, /*accumulate=*/true);
  agg.stop(1'000'000, a1[0] + a1[1], 800);

  // Datapath and clock attribute exactly; tile leakage is injected by the
  // thermal model, so compare the nominal drive power against the
  // aggregate's leakage-energy/duration instead.
  const auto& t = tile_acc.tiles();
  EXPECT_NEAR(t[0].datapath_j + t[1].datapath_j, agg.breakdown().datapath_j, 1e-18);
  EXPECT_NEAR(t[0].clock_j + t[1].clock_j, agg.breakdown().clock_j, 1e-18);
  const double nominal_leak_w = tile_acc.leakage_nominal_w()[0] + tile_acc.leakage_nominal_w()[1];
  EXPECT_NEAR(nominal_leak_w * 1e-6, agg.breakdown().leakage_j, 1e-15);
}

// ---------------------------------------------------------------------------
// ThermalGuard + DvfsManager cap
// ---------------------------------------------------------------------------

TEST(ThermalGuard, HystereticEngageAndRelease) {
  dvfs::ThermalGuardConfig cfg;
  cfg.temp_cap_c = 80.0;
  cfg.hysteresis_c = 5.0;
  dvfs::ThermalGuard guard(cfg, 2);

  EXPECT_FALSE(guard.observe(0, 79.9));
  EXPECT_TRUE(guard.observe(0, 80.0));   // engage at the cap
  EXPECT_TRUE(guard.observe(0, 78.0));   // inside the band: still throttled
  EXPECT_TRUE(guard.observe(0, 75.1));
  EXPECT_FALSE(guard.observe(0, 75.0));  // release at cap - hysteresis
  EXPECT_TRUE(guard.observe(0, 81.0));   // re-engage
  EXPECT_EQ(guard.engage_count(0), 2u);
  // Islands are independent.
  EXPECT_FALSE(guard.throttled(1));
  EXPECT_EQ(guard.engage_count(1), 0u);

  EXPECT_THROW(dvfs::ThermalGuard(cfg, 0), std::invalid_argument);
  cfg.hysteresis_c = -1.0;
  EXPECT_THROW(dvfs::ThermalGuard(cfg, 1), std::invalid_argument);
}

TEST(VfCurveThermal, FloorFrequencyRoundsDown) {
  const power::VfCurve cont = power::VfCurve::fdsoi28();
  EXPECT_DOUBLE_EQ(cont.floor_frequency(5e8), 5e8);  // continuous: clamp only
  EXPECT_DOUBLE_EQ(cont.floor_frequency(2e9), cont.f_max());
  EXPECT_DOUBLE_EQ(cont.floor_frequency(1e6), cont.f_min());

  const power::VfCurve quant = power::VfCurve::fdsoi28().quantized(4);
  const double step = (quant.f_max() - quant.f_min()) / 3.0;
  const double request = quant.f_min() + 1.6 * step;
  EXPECT_NEAR(quant.floor_frequency(request), quant.levels()[1], 1.0);  // down, not up
  EXPECT_NEAR(quant.floor_frequency(quant.levels()[2]), quant.levels()[2], 1.0);
  EXPECT_NEAR(quant.floor_frequency(0.0), quant.f_min(), 1.0);
}

TEST(DvfsManagerThermal, CapClampsAndZeroCapIsIdentity) {
  // NoDvfs always requests f_max, so the cap is what limits it.
  dvfs::DvfsManager capped(std::make_unique<dvfs::NoDvfsController>(),
                           power::VfCurve::fdsoi28(), 1e9, 1000);
  dvfs::DvfsManager free_run(std::make_unique<dvfs::NoDvfsController>(),
                             power::VfCurve::fdsoi28(), 1e9, 1000);
  dvfs::WindowMeasurements m;
  m.window_node_cycles = 1000;

  EXPECT_DOUBLE_EQ(capped.apply_update(0, m, 5e8), 5e8);
  EXPECT_DOUBLE_EQ(capped.current_voltage(), power::VfCurve::fdsoi28().voltage_for(5e8));
  // Releasing the cap returns to the request.
  EXPECT_DOUBLE_EQ(capped.apply_update(1000, m, 0.0), free_run.apply_update(1000, m));
  EXPECT_DOUBLE_EQ(capped.current_frequency(), free_run.current_frequency());
  EXPECT_DOUBLE_EQ(capped.current_voltage(), free_run.current_voltage());
  // A cap below f_min floors at f_min (the curve cannot go lower).
  EXPECT_DOUBLE_EQ(capped.apply_update(2000, m, 1e6), power::VfCurve::fdsoi28().f_min());
}

// ---------------------------------------------------------------------------
// Whole-simulator runs
// ---------------------------------------------------------------------------

sim::Scenario thermal_scenario() {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.pattern = "hotspot";
  s.hotspot_fraction = 0.3;
  s.lambda = 0.15;
  s.seed = 11;
  s.policy.policy = sim::Policy::Rmsd;
  s.policy.lambda_max = 0.35;
  s.control_period = 5000;
  s.phases.warmup_node_cycles = 40000;
  s.phases.measure_node_cycles = 40000;
  s.phases.max_warmup_node_cycles = 200000;
  return s;
}

TEST(ThermalIntegration, OffPathIsBitIdenticalToUntouchedScenario) {
  // The hard invariant: a scenario that sets thermal=off (the default) and
  // even perturbs the other thermal keys must reproduce the run of a
  // scenario that never touched them, bit for bit.
  sim::Scenario plain = thermal_scenario();
  sim::Scenario keyed = thermal_scenario();
  keyed.thermal = false;
  keyed.temp_cap_c = 60.0;
  keyed.rc_vertical = 900.0;
  keyed.leak_temp_coeff = 0.1;

  const sim::RunResult a = sim::run(plain);
  const sim::RunResult b = sim::run(keyed);
  const double va[] = {a.avg_delay_ns,  a.p99_delay_ns,      a.avg_frequency_hz,
                       a.avg_voltage,   a.power.datapath_j,  a.power.clock_j,
                       a.power.leakage_j, a.delivered_flits_per_node_cycle,
                       a.energy_per_bit_pj, a.avg_buffer_occupancy};
  const double vb[] = {b.avg_delay_ns,  b.p99_delay_ns,      b.avg_frequency_hz,
                       b.avg_voltage,   b.power.datapath_j,  b.power.clock_j,
                       b.power.leakage_j, b.delivered_flits_per_node_cycle,
                       b.energy_per_bit_pj, b.avg_buffer_occupancy};
  EXPECT_EQ(0, std::memcmp(va, vb, sizeof(va)));
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_FALSE(b.thermal.enabled);
  EXPECT_EQ(b.thermal.tile_peak_temp_c.size(), 0u);
}

TEST(ThermalIntegration, ClosedLoopHeatsBoundsAndSplitsEnergy) {
  sim::Scenario s = thermal_scenario();
  s.thermal = true;
  const sim::RunResult r = sim::run(s);

  ASSERT_TRUE(r.thermal.enabled);
  ASSERT_EQ(r.thermal.tile_peak_temp_c.size(), 16u);
  // Temperatures: above ambient (the NoC burns power), below the cap
  // (85 C default is far above what this load can reach).
  EXPECT_GT(r.thermal.peak_temp_c, s.temp_ambient_c + 0.5);
  EXPECT_LT(r.thermal.peak_temp_c, s.temp_cap_c);
  EXPECT_GE(r.thermal.peak_temp_c, r.thermal.mean_temp_c);
  EXPECT_GE(r.thermal.mean_temp_c, s.temp_ambient_c);
  for (const double t : r.thermal.tile_peak_temp_c) {
    EXPECT_GE(t, s.temp_ambient_c);
    EXPECT_LE(t, r.thermal.peak_temp_c);
  }
  // The RunResult leakage is the temperature-resolved figure, and it sits
  // strictly inside its Arrhenius bounds: every tile ran between ambient
  // (= the leakage reference temperature) and the window peak.
  EXPECT_NEAR(r.thermal.leakage_j, r.power.leakage_j, 1e-15);
  EXPECT_GT(r.thermal.leakage_j, r.thermal.leakage_ref_j);
  const double scale_at_peak =
      std::exp(s.leak_temp_coeff * (r.thermal.peak_temp_c - s.temp_ambient_c));
  EXPECT_LE(r.thermal.leakage_j, scale_at_peak * r.thermal.leakage_ref_j);
  // No throttling at the default cap.
  EXPECT_EQ(r.thermal.throttle_events, 0u);
  EXPECT_DOUBLE_EQ(r.thermal.throttle_residency, 0.0);
  // Island slice mirrors the run for the single global domain.
  ASSERT_EQ(r.islands.size(), 1u);
  EXPECT_DOUBLE_EQ(r.islands[0].peak_temp_c, r.thermal.peak_temp_c);
  EXPECT_NEAR(r.islands[0].power.total_j(), r.power.total_j(), 1e-15);
}

TEST(ThermalIntegration, ColdAndThermalChargeTheSameDynamicEnergy) {
  // Same activity, same energy: with a cap the die never reaches, thermal
  // only changes how leakage is resolved, so the data-path and clock
  // energies of the run and of every island are bit-equal to thermal=off.
  sim::Scenario s;
  s.network.width = 5;
  s.network.height = 5;
  s.pattern = "hotspot";
  s.lambda = 0.15;
  s.packet_size = 20;
  s.policy.policy = sim::Policy::Dmsd;
  s.islands = "quadrants";
  s.temp_cap_c = 500.0;
  s.control_period = 5000;
  s.phases.adaptive_warmup = false;
  s.phases.warmup_node_cycles = 20000;
  s.phases.measure_node_cycles = 20000;
  const sim::RunResult cold = sim::run(s);
  s.thermal = true;
  const sim::RunResult hot = sim::run(s);

  ASSERT_TRUE(hot.thermal.enabled);
  EXPECT_EQ(hot.thermal.throttle_events, 0u);
  EXPECT_EQ(cold.packets_delivered, hot.packets_delivered);
  EXPECT_EQ(cold.avg_delay_ns, hot.avg_delay_ns);
  EXPECT_EQ(cold.avg_frequency_hz, hot.avg_frequency_hz);
  EXPECT_EQ(cold.power.datapath_j, hot.power.datapath_j);
  EXPECT_EQ(cold.power.clock_j, hot.power.clock_j);
  ASSERT_EQ(cold.islands.size(), 4u);
  ASSERT_EQ(hot.islands.size(), 4u);
  for (std::size_t i = 0; i < cold.islands.size(); ++i) {
    EXPECT_EQ(cold.islands[i].power.datapath_j, hot.islands[i].power.datapath_j) << "island " << i;
    EXPECT_EQ(cold.islands[i].power.clock_j, hot.islands[i].power.clock_j) << "island " << i;
  }
  // Leakage differs only by temperature: a warm die leaks more.
  EXPECT_GT(hot.power.leakage_j, cold.power.leakage_j);
}

TEST(ThermalIntegration, LowCapThrottlesAndStaysInBand) {
  sim::Scenario hot = thermal_scenario();
  hot.thermal = true;
  const sim::RunResult free_run = sim::run(hot);
  ASSERT_GT(free_run.thermal.peak_temp_c, hot.temp_ambient_c + 1.0);

  // Cap well below the free-running peak so the guard must engage.
  sim::Scenario capped = hot;
  capped.temp_cap_c =
      hot.temp_ambient_c + 0.5 * (free_run.thermal.peak_temp_c - hot.temp_ambient_c);
  const sim::RunResult r = sim::run(capped);

  EXPECT_GT(r.thermal.throttle_residency, 0.0);
  EXPECT_GT(r.thermal.throttle_events, 0u);
  EXPECT_GT(r.islands[0].throttle_residency, 0.0);
  // The acceptance band: ambient <= T <= cap + hysteresis.
  for (const double t : r.thermal.tile_peak_temp_c) {
    EXPECT_GE(t, capped.temp_ambient_c);
    EXPECT_LE(t, capped.temp_cap_c + capped.temp_hysteresis_c);
  }
  // Throttling costs frequency and delay but cuts energy.
  EXPECT_LT(r.avg_frequency_hz, free_run.avg_frequency_hz);
  EXPECT_LT(r.power.total_j(), free_run.power.total_j());
}

TEST(ThermalIntegration, QuadrantIslandsThrottleIndependently) {
  sim::Scenario s = thermal_scenario();
  s.network.width = 4;
  s.network.height = 4;
  s.islands = "quadrants";
  s.thermal = true;
  // RMSD keeps the sensing signal local to each island: throttling the hot
  // quadrant does not change the others' offered rate, so their frequency
  // (and temperature) stays put — the cleanest independence probe. (DMSD
  // would couple the islands through the delay signal: a throttled hot
  // quadrant raises delays network-wide and the cool quadrants ramp up.)
  const sim::RunResult free_run = sim::run(s);
  ASSERT_EQ(free_run.islands.size(), 4u);

  // Per-island peaks cover the global peak.
  double max_island_peak = 0.0;
  for (const auto& isl : free_run.islands) {
    max_island_peak = std::max(max_island_peak, isl.peak_temp_c);
  }
  EXPECT_DOUBLE_EQ(max_island_peak, free_run.thermal.peak_temp_c);
  // Island energies still sum to the total in the thermal path.
  double sum = 0.0;
  for (const auto& isl : free_run.islands) sum += isl.power.total_j();
  EXPECT_NEAR(sum, free_run.power.total_j(), 1e-12 * std::max(1.0, free_run.power.total_j()));

  // The quadrant holding the hotspot — node (2,2), island 3 on a 4×4
  // quadrant split — runs hotter than the coolest quadrant.
  int hot = 0, cold = 0;
  for (int i = 1; i < 4; ++i) {
    if (free_run.islands[static_cast<std::size_t>(i)].peak_temp_c >
        free_run.islands[static_cast<std::size_t>(hot)].peak_temp_c) {
      hot = i;
    }
    if (free_run.islands[static_cast<std::size_t>(i)].peak_temp_c <
        free_run.islands[static_cast<std::size_t>(cold)].peak_temp_c) {
      cold = i;
    }
  }
  EXPECT_EQ(hot, 3);
  EXPECT_GT(free_run.islands[static_cast<std::size_t>(hot)].peak_temp_c,
            free_run.islands[static_cast<std::size_t>(cold)].peak_temp_c);

  // A cap between the hot and cold quadrant peaks throttles only the hot one.
  sim::Scenario capped = s;
  const double hot_peak = free_run.islands[static_cast<std::size_t>(hot)].peak_temp_c;
  const double cold_peak = free_run.islands[static_cast<std::size_t>(cold)].peak_temp_c;
  capped.temp_cap_c = s.temp_ambient_c + 0.75 * (hot_peak - s.temp_ambient_c);
  if (capped.temp_cap_c > cold_peak + 1.0) {
    const sim::RunResult r = sim::run(capped);
    EXPECT_GT(r.islands[static_cast<std::size_t>(hot)].throttle_residency, 0.0);
    EXPECT_DOUBLE_EQ(r.islands[static_cast<std::size_t>(cold)].throttle_residency, 0.0);
  }
}

TEST(ThermalScenario, KeysRoundTripThroughConfig) {
  common::Config c;
  sim::Scenario::declare_keys(c);
  const char* argv[] = {"test",          "thermal=1",        "thermal_step_ns=250",
                        "temp_ambient_c=40", "temp_cap_c=70", "temp_hysteresis_c=3",
                        "rc_vertical=1200",  "rc_lateral=2500", "leak_temp_coeff=0.05"};
  c.parse_args(9, argv);
  const sim::Scenario s = sim::Scenario::from_config(c);
  EXPECT_TRUE(s.thermal);
  EXPECT_DOUBLE_EQ(s.thermal_step_ns, 250.0);
  EXPECT_DOUBLE_EQ(s.temp_ambient_c, 40.0);
  EXPECT_DOUBLE_EQ(s.temp_cap_c, 70.0);
  EXPECT_DOUBLE_EQ(s.temp_hysteresis_c, 3.0);
  EXPECT_DOUBLE_EQ(s.rc_vertical, 1200.0);
  EXPECT_DOUBLE_EQ(s.rc_lateral, 2500.0);
  EXPECT_DOUBLE_EQ(s.leak_temp_coeff, 0.05);
}

TEST(ThermalScenario, ValidationNamesTheProblem) {
  sim::Scenario s = thermal_scenario();
  s.thermal = true;
  EXPECT_EQ(sim::scenario_problem(s), "");

  sim::Scenario bad = s;
  bad.temp_cap_c = bad.temp_ambient_c - 5.0;
  EXPECT_NE(sim::scenario_problem(bad).find("temp_cap_c"), std::string::npos);

  bad = s;
  bad.thermal_step_ns = 1e9;  // one second: far above the stability bound
  EXPECT_NE(sim::scenario_problem(bad).find("stability bound"), std::string::npos);

  bad = s;
  bad.rc_lateral = 0.0;
  EXPECT_NE(sim::scenario_problem(bad).find("rc_lateral"), std::string::npos);

  // A release point at or below ambient would latch the throttle on
  // permanently (tiles never cool below ambient), so it is rejected.
  bad = s;
  bad.temp_cap_c = 60.0;
  bad.temp_hysteresis_c = 15.1;  // release at 44.9 < ambient 45
  EXPECT_NE(sim::scenario_problem(bad).find("latch"), std::string::npos);
  bad.temp_hysteresis_c = 14.0;  // release at 46 > ambient: fine
  EXPECT_EQ(sim::scenario_problem(bad), "");

  // Off scenarios are never rejected, however odd the inert keys look.
  bad.thermal = false;
  EXPECT_EQ(sim::scenario_problem(bad), "");

  // make_simulator surfaces the same message.
  sim::Scenario throwing = s;
  throwing.thermal_step_ns = 1e9;
  EXPECT_THROW(sim::run(throwing), std::invalid_argument);

  // SweepRunner names the offending point.
  sim::SweepRunner runner(sim::SweepRunner::Options{1});
  auto axis = sim::SweepAxis::custom(
      "thermal", {{"bad", [](sim::Scenario& sc) {
                     sc.thermal = true;
                     sc.thermal_step_ns = 1e9;
                   }}});
  try {
    runner.run(thermal_scenario(), {axis});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("thermal=bad"), std::string::npos);
    EXPECT_NE(msg.find("stability bound"), std::string::npos);
  }
}

}  // namespace
}  // namespace nocdvfs
