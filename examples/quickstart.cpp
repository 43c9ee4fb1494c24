/// \file quickstart.cpp
/// Minimal tour of the public API: describe the paper's default scenario
/// (5×5 mesh, uniform traffic at λ = 0.2) as one `sim::Scenario` value and
/// compare the three DVFS policies — No-DVFS, RMSD and DMSD — on delay,
/// frequency and power with a one-axis `SweepRunner` sweep.
///
///   $ ./quickstart
///
/// Expected shape (the paper's headline): RMSD draws the least power but
/// pays a multi-fold delay penalty; DMSD holds the delay target at a small
/// extra power cost; No-DVFS is fastest and hungriest.

#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/saturation.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  common::Config c;  // no keys of its own; run_main adds help
  return common::run_main(c, argc, argv, [] {
    // 1. The scenario: the paper's default router & mesh, one value type.
    sim::Scenario cfg;
    cfg.network.width = 5;
    cfg.network.height = 5;
    cfg.network.num_vcs = 8;
    cfg.network.vc_buffer_depth = 4;
    cfg.packet_size = 20;
    cfg.pattern = "uniform";
    cfg.lambda = 0.2;

    // 2. Anchor the policies: λ_max = 0.9 × measured saturation rate; the
    //    DMSD target is RMSD's delay at λ_node = λ_max (both per the paper).
    std::cout << "Measuring saturation rate (short probe runs)...\n";
    const sim::Anchors anchors = sim::find_anchors(cfg);
    std::cout << "lambda_sat = " << anchors.lambda_sat
              << " flits/cycle/node, lambda_max = " << anchors.lambda_max
              << ", DMSD target delay = " << anchors.target_delay_ns << " ns\n\n";

    // 3. Sweep the policy axis at the same offered load — the runs execute
    //    in parallel on the worker pool, results come back in axis order.
    cfg = sim::anchored(cfg, anchors);
    const std::vector<sim::Policy> policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                               sim::Policy::Dmsd};
    sim::SweepRunner runner;
    const auto recs = runner.run(cfg, {sim::SweepAxis::policies(policies)}, "quickstart");

    common::Table table({"policy", "avg delay [ns]", "avg freq [GHz]", "avg Vdd [V]",
                         "power [mW]", "delivered λ"});
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const sim::RunResult& r = recs[i].result;
      table.add_row({sim::to_string(policies[i]), common::Table::fmt(r.avg_delay_ns, 1),
                     common::Table::fmt(r.avg_frequency_ghz(), 3),
                     common::Table::fmt(r.avg_voltage, 3), common::Table::fmt(r.power_mw(), 1),
                     common::Table::fmt(r.delivered_flits_per_node_cycle, 3)});
    }
    table.print(std::cout);
    std::cout << "\nReading: RMSD minimizes power by running just below saturation; its delay\n"
                 "penalty exceeds its power advantage over DMSD — the paper's conclusion.\n";
    return 0;
  });
}
