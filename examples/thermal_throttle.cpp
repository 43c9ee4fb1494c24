/// \file thermal_throttle.cpp
/// Thermal subsystem walkthrough: drive a hotspot into the 5×5 mesh, let
/// the RC thermal network heat up under both control families — at a
/// steady hotspot load the delay-based loop defends its target with a
/// high clock and runs the die hottest (the paper's Fig. 6 power ratio,
/// now with the temperature–leakage feedback on top), while the
/// rate-based loop tracks the offered rate and stays cooler — then cap
/// the hot tiles with the hysteretic ThermalGuard over quadrant islands.
///
///   $ ./thermal_throttle
///
/// The example prints a per-tile temperature map and the per-island
/// throttle view, and double-checks four subsystem invariants, exiting
/// non-zero if any fails:
///   1. per-tile peak temperatures stay within [ambient, cap + hysteresis],
///   2. per-island energies recompose the run total exactly and the
///      thermal leakage matches the power-plane leakage,
///   3. the temperature-resolved leakage sits strictly inside
///      (ref, ref · arrhenius(peak)] — hot tiles leak more than the
///      reference-temperature model charges, but never more than the
///      peak temperature justifies,
///   4. the capped run actually throttles (residency > 0) and saves energy
///      relative to the like-for-like free-running quadrant run.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "power/energy_model.hpp"
#include "sim/saturation.hpp"
#include "sim/scenario.hpp"

using namespace nocdvfs;

namespace {

void print_temp_map(const sim::Scenario& cfg, const sim::RunResult& r) {
  std::cout << "per-tile peak temperature [C] (row y printed top-down):\n";
  for (int y = cfg.network.height - 1; y >= 0; --y) {
    std::cout << "  ";
    for (int x = 0; x < cfg.network.width; ++x) {
      const std::size_t tile = static_cast<std::size_t>(y * cfg.network.width + x);
      std::cout << common::Table::fmt(r.thermal.tile_peak_temp_c[tile], 1) << "  ";
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::Config c;  // no keys of its own; run_main adds help
  return common::run_main(c, argc, argv, [] {
    // 1. A hotspot scenario at 70% of saturation: 30% of all traffic
    //    converges on the center tile, which becomes the thermal hotspot.
    sim::Scenario cfg;
    cfg.pattern = "hotspot";
    cfg.hotspot_fraction = 0.3;
    cfg.seed = 7;

    std::cout << "Measuring saturation rate (short probe runs)...\n";
    const sim::Anchors anchors = sim::find_anchors(cfg);
    cfg = sim::operating_point(cfg, anchors, 0.7);

    // 2. Free-running thermal runs: how hot does each control family drive
    //    the die? The cap is set genuinely out of reach (not just the 85 C
    //    default) so these runs can never silently throttle.
    constexpr double kCapOutOfReach = 10000.0;
    cfg.thermal = true;
    cfg.temp_cap_c = kCapOutOfReach;
    sim::Scenario rmsd = cfg;
    rmsd.policy.policy = sim::Policy::Rmsd;
    sim::Scenario dmsd = cfg;
    dmsd.policy.policy = sim::Policy::Dmsd;

    std::cout << "Running free-running RMSD and DMSD with the RC network live...\n\n";
    const sim::RunResult r_rmsd = sim::run(rmsd);
    const sim::RunResult r_dmsd = sim::run(dmsd);
    std::cout << "RMSD: peak " << common::Table::fmt(r_rmsd.thermal.peak_temp_c, 1) << " C, mean "
              << common::Table::fmt(r_rmsd.thermal.mean_temp_c, 1) << " C, "
              << common::Table::fmt(r_rmsd.power_mw(), 1) << " mW, leakage excess "
              << common::Table::fmt(
                     100.0 * (r_rmsd.thermal.leakage_j - r_rmsd.thermal.leakage_ref_j) /
                         r_rmsd.thermal.leakage_ref_j,
                     1)
              << "%\n";
    std::cout << "DMSD: peak " << common::Table::fmt(r_dmsd.thermal.peak_temp_c, 1) << " C, mean "
              << common::Table::fmt(r_dmsd.thermal.mean_temp_c, 1) << " C, "
              << common::Table::fmt(r_dmsd.power_mw(), 1) << " mW, leakage excess "
              << common::Table::fmt(
                     100.0 * (r_dmsd.thermal.leakage_j - r_dmsd.thermal.leakage_ref_j) /
                         r_dmsd.thermal.leakage_ref_j,
                     1)
              << "%\n\n";
    print_temp_map(cfg, r_rmsd);

    // 3. Quadrant islands, free-running first (the like-for-like baseline —
    //    partitioning alone shifts power via the CDC penalty), then capped
    //    at 75% of that run's rise: only overheating quadrants may throttle.
    sim::Scenario free_quads = rmsd;
    free_quads.islands = "quadrants";
    const sim::RunResult r_freeq = sim::run(free_quads);

    sim::Scenario capped = free_quads;
    capped.temp_cap_c =
        cfg.temp_ambient_c + 0.75 * (r_freeq.thermal.peak_temp_c - cfg.temp_ambient_c);
    std::cout << "\nThrottle cap = " << common::Table::fmt(capped.temp_cap_c, 1)
              << " C (hysteresis " << common::Table::fmt(capped.temp_hysteresis_c, 1)
              << " C), quadrant islands...\n\n";
    const sim::RunResult r_cap = sim::run(capped);

    common::Table table({"island", "nodes", "peak C", "thr %", "engages", "f avg GHz", "P mW"});
    for (const sim::IslandResult& isl : r_cap.islands) {
      table.add_row({std::to_string(isl.island), std::to_string(isl.nodes),
                     common::Table::fmt(isl.peak_temp_c, 1),
                     common::Table::fmt(100.0 * isl.throttle_residency, 1),
                     std::to_string(isl.throttle_events),
                     common::Table::fmt(isl.avg_frequency_hz * 1e-9, 3),
                     common::Table::fmt(isl.power.average_power_mw(), 2)});
    }
    table.print(std::cout);

    // 4. Invariant checks.
    bool ok = true;
    auto check = [&ok](bool cond, const char* what) {
      if (!cond) {
        std::cerr << "INVARIANT VIOLATION: " << what << "\n";
        ok = false;
      }
    };
    for (const sim::RunResult* r : {&r_rmsd, &r_dmsd, &r_freeq, &r_cap}) {
      const double cap = r == &r_cap ? capped.temp_cap_c : cfg.temp_cap_c;
      for (const double t : r->thermal.tile_peak_temp_c) {
        check(t >= cfg.temp_ambient_c - 1e-9, "tile below ambient");
        check(t <= cap + cfg.temp_hysteresis_c + 1e-9, "tile above cap + hysteresis");
      }
      // Per-island energies must recompose the run's total exactly.
      double island_j = 0.0;
      for (const sim::IslandResult& isl : r->islands) island_j += isl.power.total_j();
      check(std::abs(island_j - r->power.total_j()) <=
                1e-12 * std::max(1.0, r->power.total_j()),
            "island energies do not sum to the total");
      check(std::abs(r->thermal.leakage_j - r->power.leakage_j) <=
                1e-12 * std::max(1.0, r->power.leakage_j),
            "thermal leakage disagrees with the power plane");
      // Every tile ran between ambient (= the leakage reference temperature)
      // and the window peak, so the temperature-resolved energy must sit
      // strictly inside [ref, ref * arrhenius(peak)].
      const double scale_at_peak =
          std::min(std::exp(cfg.leak_temp_coeff * (r->thermal.peak_temp_c - cfg.temp_ambient_c)),
                   power::kMaxLeakTempScale);
      check(r->thermal.leakage_j > r->thermal.leakage_ref_j,
            "hot tiles do not leak more than the reference model");
      check(r->thermal.leakage_j <= scale_at_peak * r->thermal.leakage_ref_j,
            "leakage exceeds the Arrhenius bound at the peak temperature");
    }
    check(r_cap.thermal.throttle_residency > 0.0, "capped run never throttled");
    check(r_cap.power.total_j() < r_freeq.power.total_j(),
          "throttling did not reduce energy vs the free-running quadrant run");
    if (!ok) return EXIT_FAILURE;

    std::cout << "\nInvariants hold: temperatures inside [ambient, cap+hysteresis]; island\n"
                 "energies recompose the total; leakage sits inside its Arrhenius bounds\n"
                 "(hot tiles leak more than the T-blind model charges); the capped run\n"
                 "throttles and saves energy vs the free-running quadrant run.\n\n"
              << "Reading: the two sensing channels heat the die differently — here the\n"
                 "delay-based loop defends its target with the higher clock and pays the\n"
                 "larger temperature-resolved leakage excess, while the rate-based loop\n"
                 "tracks the offered rate and runs cooler (at the cost of delay). With the\n"
                 "cap in force only the overheating quadrants throttle; the rest keep\n"
                 "their operating point — per-region control the global loop cannot express.\n";
    return EXIT_SUCCESS;
  });
}
