/// \file abl_queue_based.cpp
/// Ablation G — queue-occupancy control (the related-work scheme of the
/// paper's Sec. II: Wu et al.'s workload-queue throttling, LAURA-NoC's
/// buffer sensing) against the paper's three policies. QBSD senses a
/// *proxy* for delay (mean buffer occupancy), so:
///   * at mid/high loads it behaves like a delay-based policy (occupancy
///     and delay are monotonically linked);
///   * at light loads occupancy collapses towards zero regardless of
///     frequency, the loop slides to F_min and the delay guarantee is
///     lost — the same failure region as RMSD, for a different reason.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  bench::Harness h("Ablation G", "Queue-based (QBSD) vs RMSD / DMSD / No-DVFS");
  return h.run(argc, argv, [&] {
    const sim::Scenario base = h.scenario();
    const auto anchors = h.anchor(base);

    // Calibrate the occupancy setpoint the same way the paper calibrates the
    // DMSD target: measure occupancy when the network delivers the target
    // delay (No-DVFS at lambda_max would be ~saturated occupancy; instead
    // use the occupancy of the DMSD operating point at mid load).
    sim::Scenario probe = sim::operating_point(base, anchors, 0.45);
    probe.policy.policy = sim::Policy::Dmsd;
    const sim::RunResult dmsd_ref = sim::run(probe);
    // Calibrate the proxy on the target: the occupancy the network actually
    // shows while DMSD holds its delay target at mid load. QBSD steering to
    // this setpoint should replicate DMSD there and reveal where the proxy
    // breaks elsewhere.
    const double est_occupancy = std::clamp(dmsd_ref.avg_buffer_occupancy, 0.01, 0.6);
    std::cout << "QBSD setpoint = " << common::Table::fmt(est_occupancy, 3)
              << " (occupancy measured at the DMSD operating point)\n\n";

    sim::Scenario op = sim::anchored(base, anchors);
    op.policy.occupancy_setpoint = est_occupancy;

    const auto lambdas = bench::lambda_sweep(anchors.lambda_sat, bench::sweep_points(6, 4));
    const std::vector<sim::Policy> policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                               sim::Policy::Dmsd, sim::Policy::Qbsd};
    const auto recs =
        h.sweep(op, {sim::SweepAxis::lambda(lambdas), sim::SweepAxis::policies(policies)});

    common::Table table({"lambda", "policy", "delay[ns]", "freq[GHz]", "power[mW]", "occ",
                         "sat?"});
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const sim::RunResult& r = recs[i * policies.size() + p].result;
        table.add_row({common::Table::fmt(lambdas[i], 3), sim::to_string(policies[p]),
                       common::Table::fmt(r.avg_delay_ns, 1),
                       common::Table::fmt(r.avg_frequency_ghz(), 3),
                       common::Table::fmt(r.power_mw(), 1),
                       common::Table::fmt(r.avg_buffer_occupancy, 3),
                       r.saturated ? "yes" : "no"});
      }
    }
    table.print(std::cout);
    std::cout << "\nReading: QBSD tracks DMSD closely at mid/high loads (occupancy is a\n"
                 "faithful delay proxy there) but drifts towards RMSD-like delays at light\n"
                 "load where occupancy stops responding to frequency — supporting the\n"
                 "paper's choice to sense delay directly.\n";
    return 0;
  });
}
