/// \file fig12_thermal.cpp
/// Extension figure: the rate-vs-delay comparison with the
/// temperature–leakage feedback loop closed. The paper's energy verdict
/// assumes leakage depends on voltage alone; at real operating points it
/// is strongly temperature-dependent, and the two control families heat
/// the die differently — RMSD holds frequency high wherever the offered
/// rate is high, DMSD lets it sag until the delay target is violated — so
/// closing the loop can move (or flip) the verdict.
///
/// Matrix: policies (RMSD / DMSD / QBSD) × workloads (hotspot / transpose
/// / recorded trace) × thermal {off, free, cap} × island layouts (global
/// / quadrants, i.e. one throttle domain vs per-quadrant throttling).
/// `free` runs the RC network with the cap out of reach — the divergent
/// natural temperatures of the three sensing channels; `cap` derives the
/// throttle cap per workload from an RMSD probe (cap = ambient +
/// cap_fraction · (probe peak − ambient)), so the hotter policy families
/// must throttle and the per-island guard has something to do.
///
/// `layouts=` and `workloads=` slice the matrix; `csv=`/`json=` rows carry
/// the appended thermal columns (`thermal`, `peak_temp_c`, `mean_temp_c`,
/// `throttle_residency`, `leakage_j`, `leakage_ref_j`). A `baseline`
/// sweep group repeats the hotspot runs through a scenario that never
/// touches any thermal key — its rows must match the thermal=off
/// `islands=global` rows bit-for-bit (CI asserts this).

#include <iostream>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

namespace {

double leak_excess_pct(const sim::RunResult& r) {
  return r.thermal.leakage_ref_j > 0.0
             ? 100.0 * (r.thermal.leakage_j - r.thermal.leakage_ref_j) / r.thermal.leakage_ref_j
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("Figure 12 (extension)",
                   "RC thermal network: temperature-dependent leakage and thermally-aware "
                   "RMSD/DMSD/QBSD throttling");
  h.config().declare("layouts", "global,quadrants",
                     "comma list of island layouts to compare");
  bench::UnevenWorkloads::declare_keys(h.config(), "fig12_thermal");
  h.config().declare_double("cap_fraction", 0.75,
                            "throttle cap as a fraction of the probed peak rise above ambient");
  sim::SweepAxis layouts;
  std::optional<bench::UnevenWorkloads> workloads;
  const auto resolve = [&] {
    layouts = bench::island_axis(common::split_csv(h.config().get_string("layouts")));
    workloads.emplace(h.config());
  };
  return h.run(argc, argv, resolve, [&] {
    const double cap_fraction = h.config().get_double("cap_fraction");
    const std::vector<sim::Policy> policies = {sim::Policy::Rmsd, sim::Policy::Dmsd,
                                               sim::Policy::Qbsd};

    for (const std::string& workload : workloads->names()) {
      std::cout << "\n--- workload: " << workload << " ---\n";
      const sim::Scenario base = workloads->build(h.scenario(), workload);

      // An unreachable cap for the probe and the `free` cells: the Scenario
      // default (85 C) is above every *default-calibration* peak, but an
      // override (hotter ambient, lower RC constants, higher load) could
      // reach it and silently throttle runs reported as free-running.
      constexpr double kCapOutOfReach = 10000.0;

      // Thermal probe: the free-running RMSD peak sets the throttle cap for
      // every thermal-on cell of this workload.
      sim::Scenario probe = base;
      probe.thermal = true;
      probe.temp_cap_c = kCapOutOfReach;
      probe.policy.policy = sim::Policy::Rmsd;
      const sim::RunResult probed = sim::run(probe);
      const double cap_c = probe.temp_ambient_c +
                           cap_fraction * (probed.thermal.peak_temp_c - probe.temp_ambient_c);
      std::cout << "free-running RMSD peak = " << common::Table::fmt(probed.thermal.peak_temp_c, 1)
                << " C  ->  throttle cap = " << common::Table::fmt(cap_c, 1) << " C\n";

      auto thermal_axis = sim::SweepAxis::custom(
          "thermal", {{"off", [](sim::Scenario&) {}},
                      {"free", [](sim::Scenario& s) {
                         s.thermal = true;
                         s.temp_cap_c = kCapOutOfReach;
                       }},
                      {"cap", [cap_c](sim::Scenario& s) {
                         s.thermal = true;
                         s.temp_cap_c = cap_c;
                       }}});
      const char* thermal_labels[] = {"off", "free", "cap"};
      const auto recs = h.sweep(base, {layouts, thermal_axis, sim::SweepAxis::policies(policies)},
                                "fig12-" + workload);

      common::Table table({"layout", "thermal", "policy", "delay ns", "P mW", "peak C",
                           "mean C", "thr %", "leak+%", "sat"});
      const std::size_t cells_per_layout = 3 * policies.size();
      for (std::size_t l = 0; l < layouts.size(); ++l) {
        for (std::size_t t = 0; t < 3; ++t) {
          for (std::size_t pi = 0; pi < policies.size(); ++pi) {
            const sim::RunResult& r =
                recs[l * cells_per_layout + t * policies.size() + pi].result;
            table.add_row({layouts.points[l].label, thermal_labels[t],
                           sim::to_string(policies[pi]),
                           common::Table::fmt(r.avg_delay_ns, 1),
                           common::Table::fmt(r.power_mw(), 1),
                           r.thermal.enabled ? common::Table::fmt(r.thermal.peak_temp_c, 1) : "-",
                           r.thermal.enabled ? common::Table::fmt(r.thermal.mean_temp_c, 1) : "-",
                           r.thermal.enabled
                               ? common::Table::fmt(100.0 * r.thermal.throttle_residency, 1)
                               : "-",
                           r.thermal.enabled ? common::Table::fmt(leak_excess_pct(r), 1) : "-",
                           r.saturated ? "y" : "n"});
          }
        }
      }
      table.print(std::cout);
    }

    // Baseline rows for the CI identity check: the same hotspot scenarios
    // built from a Scenario whose thermal keys are never touched. Bit-equal
    // to the thermal=off islands=global rows above, or the default path
    // regressed.
    h.sweep(workloads->build(h.scenario(), "hotspot"), {sim::SweepAxis::policies(policies)},
            "baseline");

    std::cout << "\nConclusion check: the two sensing channels heat the die differently —\n"
                 "whichever loop holds the higher clock (here the delay-based one defending\n"
                 "a tight target against hotspot congestion) pays a temperature-resolved\n"
                 "leakage excess the temperature-blind model never charges, and throttles\n"
                 "hardest once the cap bites. Closing the temperature-leakage loop therefore\n"
                 "shifts the RMSD-vs-DMSD energy verdict, and per-quadrant islands confine\n"
                 "the throttle to the domains that actually overheat.\n";
    return 0;
  });
}
