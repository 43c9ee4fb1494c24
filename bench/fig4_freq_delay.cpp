/// \file fig4_freq_delay.cpp
/// Reproduces Fig. 4: the three policies side by side under the Fig. 2
/// scenario.
///   (a) network clock frequency (relative units F/F_max) vs injection
///       rate — RMSD is the most aggressive, DMSD sits between RMSD and
///       No-DVFS;
///   (b) packet delay (ns) vs injection rate — the PI loop steers DMSD
///       towards the target (the No-DVFS delay at λ_max); the paper
///       annotates a 1.9× RMSD/DMSD gap at mid load.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  bench::Harness h("Figure 4", "No-DVFS vs RMSD vs DMSD: frequency and delay");
  return h.run(argc, argv, [&] {
    const sim::Scenario base = h.scenario();
    std::cout << "Measuring saturation rate...\n";
    const auto anchors = h.anchor(base);
    std::cout << "(the DMSD target is the No-DVFS delay at lambda_max; paper: 150 ns)\n\n";

    const auto lambdas = bench::lambda_sweep(anchors.lambda_sat, bench::sweep_points(10, 6));
    const std::vector<sim::Policy> policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                               sim::Policy::Dmsd};
    const auto recs =
        h.sweep(sim::anchored(base, anchors),
                {sim::SweepAxis::lambda(lambdas), sim::SweepAxis::policies(policies)});

    common::Table table({"lambda", "F none", "F rmsd", "F dmsd", "delay none[ns]",
                         "delay rmsd[ns]", "delay dmsd[ns]", "rmsd/dmsd"});
    double worst_ratio = 0.0;
    // Tracking error |D_DMSD - target| / target, worst over λ <= λ_max.
    // Above λ_max DMSD is pinned at F_max and no policy can meet the
    // target, so those rows are listed on their own line instead.
    double worst_dmsd_error = 0.0;
    double worst_dmsd_lambda = 0.0;
    std::string above_max;
    // Frequency ordering F_rmsd <= F_dmsd <= F_max, with No-DVFS at F_max:
    // the largest amount by which a row breaks it (MHz; <= 0 means it holds).
    double worst_order_violation = -1e300;
    double worst_order_lambda = 0.0;
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      const sim::RunResult& none = recs[i * policies.size() + 0].result;
      const sim::RunResult& rmsd = recs[i * policies.size() + 1].result;
      const sim::RunResult& dmsd = recs[i * policies.size() + 2].result;
      const double ratio = rmsd.avg_delay_ns / dmsd.avg_delay_ns;
      worst_ratio = std::max(worst_ratio, ratio);
      const double dmsd_error =
          std::abs(dmsd.avg_delay_ns - anchors.target_delay_ns) / anchors.target_delay_ns;
      const double order_violation =
          std::max(rmsd.avg_frequency_hz - dmsd.avg_frequency_hz,
                   dmsd.avg_frequency_hz - none.avg_frequency_hz) / 1e6;
      if (order_violation > worst_order_violation) {
        worst_order_violation = order_violation;
        worst_order_lambda = lambdas[i];
      }
      if (lambdas[i] > anchors.lambda_max) {
        above_max += (above_max.empty() ? " lambda " : "; lambda ") +
                     common::Table::fmt(lambdas[i], 3) + ": D_dmsd " +
                     common::Table::fmt(dmsd.avg_delay_ns, 1) + " ns, " +
                     common::Table::fmt(100.0 * dmsd_error, 1) + "% off";
      } else if (dmsd_error > worst_dmsd_error) {
        worst_dmsd_error = dmsd_error;
        worst_dmsd_lambda = lambdas[i];
      }
      table.add_row({common::Table::fmt(lambdas[i], 3),
                     common::Table::fmt(none.avg_frequency_hz / 1e9, 3),
                     common::Table::fmt(rmsd.avg_frequency_hz / 1e9, 3),
                     common::Table::fmt(dmsd.avg_frequency_hz / 1e9, 3),
                     common::Table::fmt(none.avg_delay_ns, 1),
                     common::Table::fmt(rmsd.avg_delay_ns, 1),
                     common::Table::fmt(dmsd.avg_delay_ns, 1), common::Table::fmt(ratio, 2)});
    }
    table.print(std::cout);

    std::cout << "\nShape checks (paper Fig. 4):\n"
              << "  Frequency ordering F_rmsd <= F_dmsd <= F_max: "
              << (worst_order_violation > 0.0 ? "violated, worst by " : "holds, tightest margin ")
              << common::Table::fmt(std::abs(worst_order_violation), 2) << " MHz (at lambda "
              << common::Table::fmt(worst_order_lambda, 3) << ").\n"
              << "  Max |D_dmsd - target| / target over lambda <= lambda_max: "
              << common::Table::fmt(100.0 * worst_dmsd_error, 1) << "% of the "
              << common::Table::fmt(anchors.target_delay_ns, 1) << " ns target (at lambda "
              << common::Table::fmt(worst_dmsd_lambda, 3) << ").\n"
              << "  Above lambda_max (DMSD pinned at F_max, target out of reach):"
              << (above_max.empty() ? " none" : above_max) << ".\n"
              << "  Max RMSD/DMSD delay ratio: " << common::Table::fmt(worst_ratio, 1)
              << "x   (paper annotates 1.9x, and 'up to 3x' overall)\n";
    return 0;
  });
}
