// Tests for the queue-occupancy controller (QBSD) and the occupancy
// measurement channel feeding it.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dvfs/dmsd.hpp"
#include "dvfs/qbsd.hpp"
#include "sim/scenario.hpp"

namespace nocdvfs {
namespace {

dvfs::ControlContext ctx() {
  dvfs::ControlContext c;
  c.f_node = 1e9;
  c.f_min = 333e6;
  c.f_max = 1e9;
  c.f_current = 1e9;
  return c;
}

dvfs::WindowMeasurements occupancy_measurement(double occ) {
  dvfs::WindowMeasurements m;
  m.avg_buffer_occupancy = occ;
  m.window_node_cycles = 10000;
  m.window_noc_cycles = 10000;
  return m;
}

TEST(Qbsd, SpeedsUpWhenQueuesFill) {
  dvfs::QbsdConfig cfg;
  cfg.occupancy_setpoint = 0.2;
  cfg.u_init = 0.5;
  dvfs::QbsdController c(cfg);
  const double before = c.control_variable();
  c.update(ctx(), occupancy_measurement(0.6));  // queues well above setpoint
  EXPECT_GT(c.control_variable(), before);
}

TEST(Qbsd, SlowsDownWhenQueuesDrain) {
  dvfs::QbsdConfig cfg;
  cfg.occupancy_setpoint = 0.2;
  dvfs::QbsdController c(cfg);
  c.update(ctx(), occupancy_measurement(0.01));
  EXPECT_LT(c.control_variable(), 1.0);
}

TEST(Qbsd, ConvergesOnSyntheticPlant) {
  // Plant: occupancy rises as the clock slows — occ(U) = occ_ref / U
  // (Little's law with fixed offered rate and latency-in-cycles).
  dvfs::QbsdConfig cfg;
  cfg.occupancy_setpoint = 0.2;
  dvfs::QbsdController c(cfg);
  auto context = ctx();
  double u = 1.0;
  const double occ_ref = 0.1;  // occupancy at full speed
  for (int i = 0; i < 400; ++i) {
    const double occ = occ_ref / u;
    const double f = c.update(context, occupancy_measurement(occ));
    u = std::clamp(f / context.f_max, 1.0 / 3.0, 1.0);
    context.f_current = u * context.f_max;
  }
  // Fixed point: occ_ref/U = 0.2 → U = 0.5.
  EXPECT_NEAR(u, 0.5, 0.05);
}

TEST(Qbsd, ClampsAtRangeEnds) {
  dvfs::QbsdConfig cfg;
  cfg.occupancy_setpoint = 0.2;
  dvfs::QbsdController c(cfg);
  auto context = ctx();
  for (int i = 0; i < 200; ++i) c.update(context, occupancy_measurement(0.9));
  EXPECT_NEAR(c.control_variable(), 1.0, 1e-9);
  c.reset();
  for (int i = 0; i < 200; ++i) c.update(context, occupancy_measurement(0.0));
  // Bottom rail is f_min/f_max = 333 MHz / 1 GHz = 0.333 exactly.
  EXPECT_NEAR(c.control_variable(), 0.333, 1e-9);
}

TEST(Qbsd, RunsDmsdPiLawBitForBit) {
  // Equal gains and u_init, and inputs whose normalized errors match window
  // by window (dyadic errors on a 64 ns target and a 0.25 setpoint, so both
  // divisions are exact): the two control variables must agree bit for bit,
  // through both clamps and a DMSD window with no packets (sample hold, so
  // QBSD is fed the held error again).
  dvfs::DmsdConfig dcfg;
  dcfg.target_delay_ns = 64.0;
  dcfg.ki = 0.05;
  dcfg.kp = 0.025;
  dcfg.u_init = 0.5;
  dvfs::QbsdConfig qcfg;
  qcfg.occupancy_setpoint = 0.25;
  qcfg.ki = dcfg.ki;
  qcfg.kp = dcfg.kp;
  qcfg.u_init = dcfg.u_init;
  dvfs::DmsdController dmsd(dcfg);
  dvfs::QbsdController qbsd(qcfg);

  constexpr double kHold = 99.0;  // a DMSD window that delivered no packets
  std::vector<double> errors = {3.0, 3.0, 3.0, 3.0, 0.5};
  errors.insert(errors.end(), 20, -1.0);
  for (const double e : {kHold, 0.5, kHold, -0.25, 0.25, -0.75}) errors.push_back(e);

  const auto context = ctx();
  double held = 0.0;
  bool hit_top = false;
  bool hit_bottom = false;
  for (const double step : errors) {
    const double e = step == kHold ? held : step;
    dvfs::WindowMeasurements m = occupancy_measurement(qcfg.occupancy_setpoint * (1.0 + e));
    if (step != kHold) {
      m.avg_delay_ns = dcfg.target_delay_ns * (1.0 + e);
      m.packets_delivered = 1;
    }
    held = e;
    EXPECT_EQ(dmsd.update(context, m), qbsd.update(context, m)) << "error " << step;
    EXPECT_EQ(dmsd.control_variable(), qbsd.control_variable()) << "error " << step;
    EXPECT_EQ(dmsd.last_error(), qbsd.last_error()) << "error " << step;
    hit_top |= qbsd.control_variable() == 1.0;
    hit_bottom |= qbsd.control_variable() == context.f_min / context.f_max;
  }
  EXPECT_TRUE(hit_top);
  EXPECT_TRUE(hit_bottom);
}

TEST(Qbsd, ValidationErrors) {
  dvfs::QbsdConfig cfg;
  cfg.occupancy_setpoint = 0.0;
  EXPECT_THROW(dvfs::QbsdController{cfg}, std::invalid_argument);
  cfg = dvfs::QbsdConfig{};
  cfg.occupancy_setpoint = 1.0;
  EXPECT_THROW(dvfs::QbsdController{cfg}, std::invalid_argument);
  cfg = dvfs::QbsdConfig{};
  cfg.ki = 0.0;
  EXPECT_THROW(dvfs::QbsdController{cfg}, std::invalid_argument);
}

TEST(Qbsd, EndToEndRegulatesBetweenRmsdAndNoDvfs) {
  // At a mid load, QBSD with a moderate setpoint must land between the
  // extremes: slower than No-DVFS, delay far below RMSD's at the same load.
  sim::Scenario cfg;
  cfg.network.width = 4;
  cfg.network.height = 4;
  cfg.network.num_vcs = 4;
  cfg.packet_size = 8;
  cfg.lambda = 0.2;
  cfg.control_period = 2000;
  cfg.policy.lambda_max = 0.45;
  cfg.phases.warmup_node_cycles = 60000;
  cfg.phases.measure_node_cycles = 60000;
  cfg.phases.max_warmup_node_cycles = 400000;

  cfg.policy.policy = sim::Policy::Qbsd;
  // A low setpoint keeps queues shallow — clearly less aggressive than
  // RMSD's near-saturation pin (whose occupancy at this load is ~0.10).
  cfg.policy.occupancy_setpoint = 0.04;
  const auto qbsd = sim::run(cfg);
  cfg.policy.policy = sim::Policy::Rmsd;
  const auto rmsd = sim::run(cfg);

  EXPECT_LT(qbsd.avg_frequency_hz, 1e9 - 1e6) << "QBSD must actually slow down";
  EXPECT_GT(qbsd.avg_frequency_hz, rmsd.avg_frequency_hz)
      << "a shallow occupancy setpoint is less aggressive than RMSD's near-saturation pin";
  EXPECT_LT(qbsd.avg_delay_ns, rmsd.avg_delay_ns);
  EXPECT_FALSE(qbsd.saturated);
  EXPECT_NEAR(qbsd.delivered_flits_per_node_cycle, 0.2, 0.02);
}

TEST(ExperimentPlumbing, QbsdPolicyRoundTrip) {
  EXPECT_EQ(sim::policy_from_string("qbsd"), sim::Policy::Qbsd);
  EXPECT_STREQ(sim::to_string(sim::Policy::Qbsd), "qbsd");
  sim::PolicyConfig pc;
  pc.policy = sim::Policy::Qbsd;
  EXPECT_STREQ(sim::make_controller(pc)->name(), "qbsd");
}

}  // namespace
}  // namespace nocdvfs
