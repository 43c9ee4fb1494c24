/// \file abl_discrete_vf.cpp
/// Ablation C — continuous vs discrete V/F operating points. The paper's
/// footnote 2 claims results remain valid when the controller can only
/// pick from discrete levels. This bench quantizes the VF curve to 4, 8
/// and 16 evenly spaced levels (requests snap UP so timing still closes)
/// and compares delay and power against continuous tuning for both
/// policies.

#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  bench::Harness h("Ablation C", "Continuous vs discrete V/F levels (paper footnote 2)");
  return h.run(argc, argv, [&] {
    const sim::Scenario base = h.scenario();
    const auto anchors = h.anchor(base);
    constexpr double kLoad = 0.45;  // of lambda_sat
    std::cout << "operating point lambda = "
              << common::Table::fmt(kLoad * anchors.lambda_sat, 3) << "\n\n";

    const sim::Scenario op = sim::operating_point(base, anchors, kLoad);

    const std::vector<sim::Policy> policies = {sim::Policy::Rmsd, sim::Policy::Dmsd};
    const std::vector<int> levels = {0, 16, 8, 4};
    const auto recs = h.sweep(
        op, {sim::SweepAxis::policies(policies), sim::SweepAxis::vf_levels(levels)});

    common::Table table({"policy", "levels", "delay[ns]", "freq[GHz]", "Vdd[V]", "power[mW]",
                         "power vs cont."});
    for (std::size_t p = 0; p < policies.size(); ++p) {
      double continuous_power = 0.0;
      for (std::size_t l = 0; l < levels.size(); ++l) {
        const sim::RunResult& r = recs[p * levels.size() + l].result;
        if (levels[l] == 0) continuous_power = r.power_mw();
        table.add_row({sim::to_string(policies[p]),
                       levels[l] == 0 ? "cont." : std::to_string(levels[l]),
                       common::Table::fmt(r.avg_delay_ns, 1),
                       common::Table::fmt(r.avg_frequency_ghz(), 3),
                       common::Table::fmt(r.avg_voltage, 3),
                       common::Table::fmt(r.power_mw(), 1),
                       common::Table::fmt(100.0 * (r.power_mw() / continuous_power - 1.0), 1) +
                           "%"});
      }
    }
    table.print(std::cout);
    std::cout << "\nReading: snapping UP to the next level overshoots the policy's operating\n"
                 "point — a few percent of extra power for RMSD, more for DMSD on coarse\n"
                 "grids (it lands below its delay target and pays for the margin). The\n"
                 "RMSD-vs-DMSD verdict — delay penalty exceeds power advantage — never\n"
                 "flips, which is the sense of the paper's footnote 2.\n";
    return 0;
  });
}
