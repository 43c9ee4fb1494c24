/// \file fig2_rmsd_latency_delay.cpp
/// Reproduces Fig. 2: RMSD vs No-DVFS on the paper's default scenario
/// (5×5 mesh, DOR, 8 VCs × 4 flits, 20-flit packets, F_node = 1 GHz,
/// F_noc ∈ [333 MHz, 1 GHz], λ_max = 0.9·λ_sat).
///
///   (a) packet latency in NETWORK CLOCK CYCLES vs injection rate — RMSD
///       holds it constant on [λ_min, λ_max];
///   (b) packet delay in NANOSECONDS vs injection rate — RMSD becomes
///       non-monotonic with a large peak at λ_min (the paper's headline
///       anomaly, ≈9× the No-DVFS delay).

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  bench::Harness h("Figure 2", "RMSD vs No-DVFS: latency (cycles) and delay (ns)");
  return h.run(argc, argv, [&] {
    const sim::Scenario base = h.scenario();
    std::cout << "Measuring saturation rate...\n";
    const auto anchors = h.anchor(base);
    const double lambda_min = anchors.lambda_max / 3.0;  // F_min/F_max = 1/3
    std::cout << "lambda_min = " << common::Table::fmt(lambda_min, 3)
              << "  (paper: sat 0.42, lambda_max 0.378)\n\n";

    auto lambdas = bench::lambda_sweep(anchors.lambda_sat, bench::sweep_points(12, 7));
    // Make sure the λ_min knee itself is sampled: that is where the delay
    // peak lives.
    lambdas.push_back(lambda_min);
    std::sort(lambdas.begin(), lambdas.end());

    const std::vector<sim::Policy> policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd};
    const auto recs =
        h.sweep(sim::anchored(base, anchors),
                {sim::SweepAxis::lambda(lambdas), sim::SweepAxis::policies(policies)});

    common::Table table({"lambda", "region", "NoDVFS lat[cyc]", "RMSD lat[cyc]",
                         "NoDVFS delay[ns]", "RMSD delay[ns]", "RMSD freq[GHz]"});
    double rmsd_peak_delay = 0.0;
    double nodvfs_delay_at_peak = 0.0;
    double peak_lambda = 0.0;

    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      const double lambda = lambdas[i];
      const sim::RunResult& none = recs[i * policies.size() + 0].result;
      const sim::RunResult& rmsd = recs[i * policies.size() + 1].result;
      const char* region =
          lambda < lambda_min ? "F=Fmin" : (lambda <= anchors.lambda_max ? "scaling" : "F=Fmax");
      table.add_row({common::Table::fmt(lambda, 3), region,
                     common::Table::fmt(none.avg_latency_cycles, 1),
                     common::Table::fmt(rmsd.avg_latency_cycles, 1),
                     common::Table::fmt(none.avg_delay_ns, 1),
                     common::Table::fmt(rmsd.avg_delay_ns, 1),
                     common::Table::fmt(rmsd.avg_frequency_ghz(), 3)});
      if (rmsd.avg_delay_ns > rmsd_peak_delay) {
        rmsd_peak_delay = rmsd.avg_delay_ns;
        nodvfs_delay_at_peak = none.avg_delay_ns;
        peak_lambda = lambda;
      }
    }
    table.print(std::cout);

    std::cout << "\nShape checks (paper Fig. 2):\n"
              << "  RMSD delay peak: " << common::Table::fmt(rmsd_peak_delay, 1) << " ns at lambda "
              << common::Table::fmt(peak_lambda, 3) << " (near lambda_min "
              << common::Table::fmt(lambda_min, 3) << ")\n"
              << "  Peak / No-DVFS delay ratio: "
              << common::Table::fmt(rmsd_peak_delay / nodvfs_delay_at_peak, 1)
              << "x   (paper: ~9x)\n"
              << "  RMSD latency in cycles is ~constant on [lambda_min, lambda_max] while the\n"
              << "  No-DVFS latency grows with load — the rate law pins the NoC at lambda_max.\n";
    return 0;
  });
}
