/// \file fig10_multimedia.cpp
/// Reproduces Fig. 10: packet delay (a, b) and power (c, d) vs application
/// speed for the two multimedia workloads — H.264 encoder on a 4×4 mesh
/// and the Video Conference Encoder on a 5×5 mesh. Speed is normalized so
/// 1.0 corresponds to the paper's 75 frames/s reference.
///
/// Calibration (ARCHITECTURE.md, "Workloads"): the figure's per-frame
/// packet counts fix the *relative* traffic matrix; the absolute scale
/// (packet payloads, flit width) is not recoverable from the scan, so
/// `sim::find_anchors` scales the matrix such that speed 1.0 sits at 0.9×
/// the measured saturation of the mapped workload — matching the paper's
/// plots, where delay curves rise steeply as speed approaches 1.0. λ_max
/// and the DMSD target are derived there by the same call.
///
/// `apps=h264` runs one of the two apps.

#include <cmath>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

namespace {

void run_app(bench::Harness& h, const std::string& app) {
  std::cout << "\n--- app: " << app << " ---\n";
  sim::Scenario base = h.scenario();
  base.workload = sim::Scenario::Workload::App;
  base.app = app;

  // Calibrate the rate matrix (speed 1.0 = 0.9 × saturation) and derive
  // λ_max and the DMSD target at speed 1.0.
  base = sim::anchored(base, h.anchor(base));

  const int points = bench::sweep_points(9, 5);
  std::vector<double> speeds;
  for (int i = 1; i <= points; ++i) speeds.push_back(static_cast<double>(i) / points);
  const std::vector<sim::Policy> policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                             sim::Policy::Dmsd};
  const auto recs = h.sweep(
      base, {sim::SweepAxis::speed(speeds), sim::SweepAxis::policies(policies)},
      "app=" + app);

  common::Table table({"speed", "lambda", "delay none", "delay rmsd", "delay dmsd",
                       "P none", "P rmsd", "P dmsd", "d rmsd/dmsd", "P none/dmsd"});
  double mid_d_ratio = 0.0, mid_p_ratio = 0.0;
  double dist = 1e9;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const double speed = speeds[i];
    sim::Scenario lcfg = base;
    lcfg.speed = speed;
    const double lambda = sim::mean_lambda(lcfg);
    const sim::RunResult& none = recs[i * policies.size() + 0].result;
    const sim::RunResult& rmsd = recs[i * policies.size() + 1].result;
    const sim::RunResult& dmsd = recs[i * policies.size() + 2].result;
    const double d_ratio = rmsd.avg_delay_ns / dmsd.avg_delay_ns;
    table.add_row({common::Table::fmt(speed, 2), common::Table::fmt(lambda, 3),
                   common::Table::fmt(none.avg_delay_ns, 1),
                   common::Table::fmt(rmsd.avg_delay_ns, 1),
                   common::Table::fmt(dmsd.avg_delay_ns, 1),
                   common::Table::fmt(none.power_mw(), 1),
                   common::Table::fmt(rmsd.power_mw(), 1),
                   common::Table::fmt(dmsd.power_mw(), 1), common::Table::fmt(d_ratio, 2),
                   common::Table::fmt(none.power_mw() / dmsd.power_mw(), 2)});
    if (std::abs(speed - 0.5) < dist) {
      dist = std::abs(speed - 0.5);
      mid_d_ratio = d_ratio;
      mid_p_ratio = none.power_mw() / dmsd.power_mw();
    }
  }
  table.print(std::cout);
  std::cout << "At speed ~0.5: RMSD/DMSD delay = " << common::Table::fmt(mid_d_ratio, 2)
            << "x (paper: ~2x / ~2.1x), No-DVFS/DMSD power = "
            << common::Table::fmt(mid_p_ratio, 2) << "x (paper: ~1.4x)\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("Figure 10", "Multimedia workloads: delay and power vs app speed");
  h.config().declare("apps", "h264,vce", "comma list of apps to sweep");
  return h.run(argc, argv, [&] {
    std::stringstream apps(h.config().get_string("apps"));
    std::string app;
    while (std::getline(apps, app, ',')) run_app(h, app);

    std::cout << "\nConclusion check: under realistic multimedia traffic the RMSD power\n"
                 "saving still costs disproportionate application delay — the delay-based\n"
                 "policy remains the better trade-off (paper Sec. VI).\n";
    return 0;
  });
}
