/// \file fig5_vf_curve.cpp
/// Reproduces Fig. 5: the maximum router clock frequency vs supply voltage
/// for the 28-nm FDSOI critical path. The paper extracts this table from
/// Eldo transistor-level simulation of the synthesized router; this build
/// uses the calibrated alpha-power model pinned at the paper's anchors
/// (0.56 V → 333 MHz, 0.90 V → 1 GHz). Also prints the discrete-level
/// variants used by the footnote-2 ablation.
///
/// No simulation runs here — the curve is a pure model — so this bench
/// declares its own four keys rather than the Scenario harness.

#include <iostream>
#include <stdexcept>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "power/vf_curve.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  common::Config c;
  c.declare_double("vmin", 0.56, "lowest Vdd to tabulate [V]");
  c.declare_double("vmax", 0.90, "highest Vdd to tabulate [V]");
  c.declare_double("vstep", 0.02, "Vdd step [V]");
  c.declare("levels", "4,8", "discrete-level variants to print");
  return common::run_main(c, argc, argv, [&] {
    const double vmin = c.get_double("vmin");
    const double vmax = c.get_double("vmax");
    const double vstep = c.get_double("vstep");
    const std::vector<double> level_counts = c.get_double_list("levels");
    if (!(vstep > 0.0)) throw std::invalid_argument("vstep must be positive");

    std::cout << "=================================================================\n"
                 "Figure 5 — Network clock frequency vs Vdd (28-nm FDSOI model)\n"
                 "=================================================================\n";

    const power::VfCurve curve = power::VfCurve::fdsoi28();
    common::Table table({"Vdd [V]", "Fmax [GHz]", "Fmax/F(0.9V)"});
    for (double v = vmin; v <= vmax + 1e-4; v += vstep) {
      const double f = curve.frequency_at(v);
      table.add_row({common::Table::fmt(v, 2), common::Table::fmt(f / 1e9, 3),
                     common::Table::fmt(f / curve.f_max(), 3)});
    }
    table.print(std::cout);

    std::cout << "\nInverse lookups (voltage needed for a target frequency):\n";
    common::Table inv({"F [GHz]", "Vdd [V]"});
    for (double f = 0.333e9; f <= 1.0001e9; f += 0.111e9) {
      inv.add_row({common::Table::fmt(f / 1e9, 3), common::Table::fmt(curve.voltage_for(f), 3)});
    }
    inv.print(std::cout);

    std::cout << "\nDiscrete-level variants (ablation C operating points):\n";
    for (const double levels_d : level_counts) {
      const int levels = static_cast<int>(levels_d);
      const power::VfCurve q = curve.quantized(static_cast<std::size_t>(levels));
      std::cout << "  " << levels << " levels:";
      for (const double f : q.levels()) {
        std::cout << ' ' << common::Table::fmt(f / 1e9, 3) << "GHz@"
                  << common::Table::fmt(q.voltage_for(f), 2) << "V";
      }
      std::cout << '\n';
    }
    std::cout << "\nAnchors match the paper exactly: 333 MHz at 0.56 V, 1 GHz at 0.90 V.\n";
    return 0;
  });
}
