// Power-substrate tests: the V–F curve (the paper's Fig. 5 anchors), the
// event-energy model's scaling laws, and the segment-integrating power
// accumulator.

#include <gtest/gtest.h>

#include <cmath>

#include "power/energy_model.hpp"
#include "power/power_model.hpp"
#include "power/vf_curve.hpp"

namespace nocdvfs::power {
namespace {

// ----------------------------------------------------------- VF curve ----

TEST(VfCurve, PaperAnchorsHoldExactly) {
  const VfCurve c = VfCurve::fdsoi28();
  EXPECT_NEAR(c.frequency_at(0.56), 333e6, 1e3);
  EXPECT_NEAR(c.frequency_at(0.90), 1e9, 1e3);
  EXPECT_NEAR(c.voltage_for(333e6), 0.56, 1e-4);
  EXPECT_NEAR(c.voltage_for(1e9), 0.90, 1e-4);
}

TEST(VfCurve, MonotoneAndNearLinear) {
  const VfCurve c = VfCurve::fdsoi28();
  double prev_f = 0.0;
  for (double v = 0.56; v <= 0.901; v += 0.01) {
    const double f = c.frequency_at(v);
    EXPECT_GT(f, prev_f) << "at " << v;
    prev_f = f;
  }
  // Fig. 5 is close to linear over [0.56, 0.9] V; the alpha-power model
  // must stay within 15% of the chord at mid-range.
  const double mid = c.frequency_at(0.73);
  const double chord = 0.5 * (333e6 + 1e9);
  EXPECT_NEAR(mid, chord, 0.15 * chord);
}

TEST(VfCurve, RoundTripConsistency) {
  const VfCurve c = VfCurve::fdsoi28();
  for (double f = 350e6; f < 1e9; f += 50e6) {
    EXPECT_NEAR(c.frequency_at(c.voltage_for(f)), f, 2e6) << "f = " << f;
  }
}

TEST(VfCurve, ClampsOutsideRange) {
  const VfCurve c = VfCurve::fdsoi28();
  EXPECT_DOUBLE_EQ(c.frequency_at(0.3), c.f_min());
  EXPECT_DOUBLE_EQ(c.frequency_at(1.2), c.f_max());
  EXPECT_DOUBLE_EQ(c.voltage_for(100e6), c.v_min());
  EXPECT_DOUBLE_EQ(c.voltage_for(2e9), c.v_max());
  EXPECT_DOUBLE_EQ(c.clamp_frequency(2e9), c.f_max());
  EXPECT_DOUBLE_EQ(c.clamp_frequency(1e6), c.f_min());
}

TEST(VfCurve, QuantizedSnapsUpward) {
  const VfCurve c = VfCurve::fdsoi28().quantized(4);
  ASSERT_TRUE(c.is_quantized());
  ASSERT_EQ(c.levels().size(), 4u);
  // Levels are evenly spaced between f_min and f_max.
  const double step = (c.f_max() - c.f_min()) / 3.0;
  EXPECT_NEAR(c.levels()[1], c.f_min() + step, 1.0);
  // A request between levels rounds UP (timing must still close).
  const double request = c.f_min() + 0.4 * step;
  EXPECT_NEAR(c.snap_frequency(request), c.levels()[1], 1.0);
  // Exact level stays put; top clamps.
  EXPECT_NEAR(c.snap_frequency(c.levels()[2]), c.levels()[2], 1.0);
  EXPECT_NEAR(c.snap_frequency(2e9), c.f_max(), 1.0);
}

TEST(VfCurve, ContinuousSnapIsClamp) {
  const VfCurve c = VfCurve::fdsoi28();
  EXPECT_FALSE(c.is_quantized());
  EXPECT_DOUBLE_EQ(c.snap_frequency(5e8), 5e8);
}

TEST(VfCurve, ValidationErrors) {
  EXPECT_THROW(VfCurve({{0.5, 1e9}}), std::invalid_argument);
  EXPECT_THROW(VfCurve({{0.5, 1e9}, {0.6, 0.9e9}}), std::invalid_argument);  // F not increasing
  EXPECT_THROW(VfCurve({{0.6, 1e9}, {0.5, 2e9}}), std::invalid_argument);    // V not increasing
  EXPECT_THROW(VfCurve::fdsoi28().quantized(1), std::invalid_argument);
}

// ------------------------------------------------------- energy model ----

TEST(EnergyModel, VoltageScalingLaws) {
  const EnergyModel m(EnergyModel::reference_geometry());
  EXPECT_NEAR(m.dynamic_scale(0.9), 1.0, 1e-12);
  EXPECT_NEAR(m.dynamic_scale(0.45), 0.25, 1e-12);           // (V/V0)²
  EXPECT_NEAR(m.leakage_scale(0.45), 0.125, 1e-12);          // (V/V0)³
}

TEST(EnergyModel, EventEnergyAdditive) {
  const EnergyModel m(EnergyModel::reference_geometry());
  ActivityCounters a;
  a.buffer_writes = 100;
  ActivityCounters b;
  b.crossbar_traversals = 50;
  const VoltageScale v = m.voltage_scale(0.9);
  const double sep = m.event_energy_j(a, v) + m.event_energy_j(b, v);
  ActivityCounters both = a + b;
  EXPECT_NEAR(m.event_energy_j(both, v), sep, 1e-18);
}

TEST(EnergyModel, ReferenceEventEnergiesAreCalibrated) {
  const EnergyModel m(EnergyModel::reference_geometry());
  // Reference geometry reproduces the quoted constants exactly.
  EXPECT_NEAR(m.buffer_write_j(), 0.75e-12, 1e-18);
  EXPECT_NEAR(m.link_j(), 1.0e-12, 1e-18);
  EXPECT_NEAR(m.clock_per_cycle_j(), 2.2e-12, 1e-18);
}

TEST(EnergyModel, GeometryScalingMonotone) {
  RouterGeometry big = EnergyModel::reference_geometry();
  big.num_vcs *= 2;
  big.buffer_depth *= 2;
  const EnergyModel ref(EnergyModel::reference_geometry());
  const EnergyModel scaled(big);
  EXPECT_GT(scaled.clock_per_cycle_j(), ref.clock_per_cycle_j());
  EXPECT_GT(scaled.router_leakage_w(scaled.voltage_scale(0.9)),
            ref.router_leakage_w(ref.voltage_scale(0.9)));

  RouterGeometry wide = EnergyModel::reference_geometry();
  wide.flit_bits *= 2;
  const EnergyModel wider(wide);
  EXPECT_NEAR(wider.link_j(), 2.0 * ref.link_j(), 1e-18);
  EXPECT_GT(wider.buffer_write_j(), ref.buffer_write_j());
}

TEST(EnergyModel, IdlePowerMatchesFig6Intercept) {
  // 5×5 NoC at (0.9 V, 1 GHz) with zero traffic: clock + leakage should
  // land near the ≈95 mW intercept of the paper's Fig. 6.
  const EnergyModel m(EnergyModel::reference_geometry());
  const int routers = 25, links = 80, locals = 50;
  const double clock_w = m.clock_per_cycle_j() * 1e9 * routers;
  const double leak_w =
      m.router_leakage_w(m.voltage_scale(0.9)) * routers +
      m.link_leakage_w(m.voltage_scale(0.9)) * (links + 0.5 * locals);
  const double idle_mw = (clock_w + leak_w) * 1e3;
  EXPECT_GT(idle_mw, 75.0);
  EXPECT_LT(idle_mw, 115.0);
}

TEST(EnergyModel, LeakageScalingAtCurveVoltageExtremes) {
  // The VF curve tunes over [0.56, 0.90] V; exercise the scaling laws at
  // both endpoints (previous coverage only hit interior points).
  const EnergyModel m(EnergyModel::reference_geometry());
  const VfCurve c = VfCurve::fdsoi28();
  EXPECT_DOUBLE_EQ(c.v_min(), 0.56);
  EXPECT_DOUBLE_EQ(c.v_max(), 0.90);
  // Top of the range is the calibration point: scale factors are exactly 1.
  EXPECT_DOUBLE_EQ(m.leakage_scale(c.v_max()), 1.0);
  EXPECT_DOUBLE_EQ(m.dynamic_scale(c.v_max()), 1.0);
  // Bottom of the range follows the cubic law exactly.
  EXPECT_NEAR(m.leakage_scale(c.v_min()), std::pow(0.56 / 0.90, 3.0), 1e-12);
  EXPECT_NEAR(m.dynamic_scale(c.v_min()), std::pow(0.56 / 0.90, 2.0), 1e-12);
  // Leakage power at the endpoints brackets every interior voltage.
  const double bottom_w = m.router_leakage_w(m.voltage_scale(c.v_min()));
  const double top_w = m.router_leakage_w(m.voltage_scale(c.v_max()));
  EXPECT_LT(bottom_w, top_w);
  for (int step = 0; step <= 17; ++step) {
    const double v = c.v_min() + (c.v_max() - c.v_min()) * step / 17.0;
    EXPECT_GE(m.router_leakage_w(m.voltage_scale(v)), bottom_w) << "v = " << v;
    EXPECT_LE(m.router_leakage_w(m.voltage_scale(v)), top_w) << "v = " << v;
  }
  // The full voltage swing cuts leakage ~4x — the mechanism behind the
  // paper's Fig. 6 power gap.
  EXPECT_NEAR(top_w / bottom_w, std::pow(0.90 / 0.56, 3.0), 1e-9);
}

TEST(EnergyModel, RejectsDegenerateGeometry) {
  RouterGeometry g = EnergyModel::reference_geometry();
  g.num_ports = 1;
  EXPECT_THROW(EnergyModel{g}, std::invalid_argument);
  g = EnergyModel::reference_geometry();
  g.flit_bits = 0;
  EXPECT_THROW(EnergyModel{g}, std::invalid_argument);
}

// ---------------------------------------------------- power integration ----

NetworkInventory small_inventory() { return NetworkInventory{9, 24, 18}; }

TEST(PowerAccumulator, ConstantSegmentMatchesDirectIntegration) {
  const EnergyModel m(EnergyModel::reference_geometry());
  PowerAccumulator acc(m, small_inventory());
  ActivityCounters start;
  acc.start(0, start, 0, 0.8, 1e9);
  ActivityCounters end;
  end.buffer_writes = 1000;
  end.link_flit_hops = 500;
  acc.stop(1'000'000, end, 1000);

  // One segment is exactly one application of the interval formula.
  const SegmentEnergy direct =
      segment_energy(m, small_inventory(), end, 1000, m.voltage_scale(0.8));
  EXPECT_EQ(acc.breakdown().datapath_j, direct.datapath_j);
  EXPECT_EQ(acc.breakdown().clock_j, direct.clock_j);
  EXPECT_EQ(acc.breakdown().leakage_j, direct.leakage_w * common::seconds_from_ps(1'000'000));
  EXPECT_EQ(acc.breakdown().elapsed_ps, 1'000'000u);
  // And the formula is the sum of its parts at that voltage.
  const NetworkInventory inv = small_inventory();
  const VoltageScale v = m.voltage_scale(0.8);
  EXPECT_EQ(direct.datapath_j, m.event_energy_j(end, v));
  EXPECT_EQ(direct.clock_j, m.clock_energy_j(1000, v) * inv.num_routers);
  EXPECT_EQ(direct.leakage_w, m.router_leakage_w(v) * inv.num_routers +
                                  m.link_leakage_w(v) * (inv.num_links + 0.5 * inv.num_local_links));
}

TEST(PowerAccumulator, SegmentedEqualsSingleWhenVfConstant) {
  const EnergyModel m(EnergyModel::reference_geometry());
  PowerAccumulator split(m, small_inventory());
  PowerAccumulator whole(m, small_inventory());

  ActivityCounters a0;
  ActivityCounters a1;
  a1.buffer_writes = 300;
  ActivityCounters a2 = a1;
  a2.crossbar_traversals = 200;

  whole.start(0, a0, 0, 0.8, 8e8);
  whole.stop(2'000'000, a2, 1600);

  split.start(0, a0, 0, 0.8, 8e8);
  split.change_operating_point(1'000'000, a1, 800, 0.8, 8e8);
  split.stop(2'000'000, a2, 1600);

  EXPECT_NEAR(split.breakdown().total_j(), whole.breakdown().total_j(), 1e-15);
}

TEST(PowerAccumulator, LowerVoltageSegmentCostsLess) {
  const EnergyModel m(EnergyModel::reference_geometry());
  ActivityCounters a0;
  ActivityCounters a1;
  a1.buffer_writes = 10000;

  PowerAccumulator hot(m, small_inventory());
  hot.start(0, a0, 0, 0.9, 1e9);
  hot.stop(1'000'000, a1, 1000);

  PowerAccumulator cold(m, small_inventory());
  cold.start(0, a0, 0, 0.6, 4e8);
  cold.stop(1'000'000, a1, 400);

  EXPECT_LT(cold.breakdown().total_j(), hot.breakdown().total_j());
  EXPECT_LT(cold.breakdown().datapath_j, hot.breakdown().datapath_j);
  EXPECT_LT(cold.breakdown().leakage_j, hot.breakdown().leakage_j);
}

TEST(PowerAccumulator, RestartAccumulatesAcrossStopStartCycles) {
  // The documented restart semantics: stop() closes the interval but keeps
  // the accumulated breakdown, so a re-start continues adding to it (the
  // simulator's per-phase protocol relies on this).
  const EnergyModel m(EnergyModel::reference_geometry());
  PowerAccumulator acc(m, small_inventory());

  ActivityCounters a0;
  ActivityCounters a1;
  a1.buffer_writes = 400;
  acc.start(0, a0, 0, 0.9, 1e9);
  acc.stop(1'000'000, a1, 1000);
  EXPECT_FALSE(acc.running());
  const double first_j = acc.breakdown().total_j();
  EXPECT_GT(first_j, 0.0);

  // Restart after a gap: the gap itself charges nothing.
  ActivityCounters a2 = a1;
  a2.crossbar_traversals = 250;
  acc.start(5'000'000, a1, 1000, 0.7, 6e8);
  EXPECT_TRUE(acc.running());
  acc.stop(6'000'000, a2, 1600);

  PowerAccumulator second(m, small_inventory());
  second.start(5'000'000, a1, 1000, 0.7, 6e8);
  second.stop(6'000'000, a2, 1600);
  EXPECT_NEAR(acc.breakdown().total_j(), first_j + second.breakdown().total_j(), 1e-18);
  // Elapsed time covers only the two active intervals, not the gap.
  EXPECT_EQ(acc.breakdown().elapsed_ps, 2'000'000u);

  // reset() zeroes the breakdown and allows a fresh start.
  acc.reset();
  EXPECT_EQ(acc.breakdown().total_j(), 0.0);
  EXPECT_EQ(acc.breakdown().elapsed_ps, 0u);
  acc.start(0, a0, 0, 0.9, 1e9);
  acc.stop(1'000'000, a1, 1000);
  EXPECT_NEAR(acc.breakdown().total_j(), first_j, 1e-18);
}

TEST(PowerAccumulator, MisuseIsCaught) {
  const EnergyModel m(EnergyModel::reference_geometry());
  PowerAccumulator acc(m, small_inventory());
  ActivityCounters a;
  EXPECT_THROW(acc.stop(0, a, 0), common::InvariantViolation);
  acc.start(0, a, 0, 0.9, 1e9);
  EXPECT_THROW(acc.start(0, a, 0, 0.9, 1e9), common::InvariantViolation);
  acc.stop(10, a, 1);
  acc.reset();
  EXPECT_EQ(acc.breakdown().total_j(), 0.0);
}

TEST(PowerAccumulator, InventoryValidation) {
  const EnergyModel m(EnergyModel::reference_geometry());
  EXPECT_THROW(PowerAccumulator(m, NetworkInventory{0, 1, 1}), std::invalid_argument);
  EXPECT_THROW(PowerAccumulator(m, NetworkInventory{1, -1, 1}), std::invalid_argument);
}

TEST(ActivityCounters, DiffAndTotals) {
  ActivityCounters a;
  a.buffer_writes = 10;
  a.link_flit_hops = 4;
  ActivityCounters b = a;
  b.buffer_writes = 25;
  b.vc_alloc_grants = 3;
  const ActivityCounters d = b.diff_since(a);
  EXPECT_EQ(d.buffer_writes, 15u);
  EXPECT_EQ(d.vc_alloc_grants, 3u);
  EXPECT_EQ(d.link_flit_hops, 0u);
  EXPECT_EQ(d.total_events(), 18u);
}

}  // namespace
}  // namespace nocdvfs::power
