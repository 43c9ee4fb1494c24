/// \file vfi_hotspot.cpp
/// Voltage–frequency islands walkthrough: partition the 5×5 mesh into
/// quadrants, give every quadrant its own DMSD controller, and drive a
/// hotspot workload into one corner. The quadrant containing the hotspot
/// must hold its clock high while the far quadrants idle down — something
/// the paper's single global domain cannot express.
///
///   $ ./vfi_hotspot
///
/// The example also double-checks two subsystem invariants and exits
/// non-zero if either fails: per-island energy attribution must sum to the
/// run's total energy, and per-island frequency-residency dwell must cover
/// the whole measurement window.

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/saturation.hpp"
#include "sim/scenario.hpp"
#include "vfi/residency.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  common::Config c;  // no keys of its own; run_main adds help
  return common::run_main(c, argc, argv, [] {
    // 1. A hotspot scenario: 20% of all traffic converges on one node.
    sim::Scenario cfg;
    cfg.pattern = "hotspot";
    cfg.hotspot_fraction = 0.2;
    cfg.seed = 7;

    // The paper's anchoring: the DMSD target is the No-DVFS delay at
    // λ_node = λ_max, leaving headroom to slow lightly loaded domains.
    std::cout << "Measuring saturation rate (short probe runs)...\n";
    const sim::Anchors anchors = sim::find_anchors(cfg);
    cfg = sim::operating_point(cfg, anchors, 0.6);
    cfg.policy.policy = sim::Policy::Dmsd;

    // 2. The same scenario under the global domain and under quadrant
    //    islands — only the partition key changes.
    sim::Scenario global = cfg;  // islands = "global" (the default)
    sim::Scenario quads = cfg;
    quads.islands = "quadrants";
    quads.network.cdc_sync_cycles = 2;  // synchronizer penalty per boundary crossing

    std::cout << "Running global vs quadrant islands (DMSD in every domain)...\n\n";
    const sim::RunResult rg = sim::run(global);
    const sim::RunResult rq = sim::run(quads);

    std::cout << "global:    delay " << common::Table::fmt(rg.avg_delay_ns, 1) << " ns,  "
              << common::Table::fmt(rg.power_mw(), 1) << " mW,  f_avg "
              << common::Table::fmt(rg.avg_frequency_ghz(), 3) << " GHz\n";
    std::cout << "quadrants: delay " << common::Table::fmt(rq.avg_delay_ns, 1) << " ns,  "
              << common::Table::fmt(rq.power_mw(), 1) << " mW,  f_avg "
              << common::Table::fmt(rq.avg_frequency_ghz(), 3) << " GHz\n\n";

    // 3. Per-island view: the hotspot lives in island 0 (the low quadrant),
    //    which receives most packets and must clock highest.
    common::Table table({"island", "nodes", "policy", "pkts", "delay ns", "f avg GHz",
                         "Vdd", "P mW", "residency"});
    for (const sim::IslandResult& isl : rq.islands) {
      table.add_row({std::to_string(isl.island), std::to_string(isl.nodes), isl.policy,
                     std::to_string(isl.packets_delivered),
                     common::Table::fmt(isl.avg_delay_ns, 1),
                     common::Table::fmt(isl.avg_frequency_hz * 1e-9, 3),
                     common::Table::fmt(isl.avg_voltage, 3),
                     common::Table::fmt(isl.power.average_power_mw(), 2),
                     vfi::residency_to_string(isl.freq_residency, rq.measure_duration_ps)});
    }
    table.print(std::cout);

    // 4. Invariant checks.
    double island_energy = 0.0;
    bool residency_ok = true;
    for (const sim::IslandResult& isl : rq.islands) {
      island_energy += isl.power.total_j();
      common::Picoseconds dwell = 0;
      for (const vfi::FreqDwell& level : isl.freq_residency) dwell += level.dwell_ps;
      if (dwell != rq.measure_duration_ps) residency_ok = false;
    }
    const double energy_err = std::abs(island_energy - rq.power.total_j());
    std::cout << "\nIsland energy sum = " << island_energy * 1e6
              << " uJ, run total = " << rq.power.total_j() * 1e6 << " uJ\n";
    if (energy_err > 1e-12 * std::max(1.0, rq.power.total_j()) || !residency_ok) {
      std::cerr << "INVARIANT VIOLATION: "
                << (residency_ok ? "island energies do not sum to the total"
                                 : "residency does not cover the measurement window")
                << "\n";
      return EXIT_FAILURE;
    }
    std::cout << "Invariants hold: island energies sum to the total; residency covers the\n"
                 "measurement window on every island.\n\n"
              << "Reading: distributed DMSD keeps the hotspot quadrant fast while the far\n"
                 "quadrants save power — the per-region control the paper's global loop\n"
                 "cannot express; each boundary crossing costs cdc_sync_cycles of latency.\n";
    return EXIT_SUCCESS;
  });
}
