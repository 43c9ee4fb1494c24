/// \file saturation_probe.cpp
/// Measures the saturation rate — the anchor of the RMSD policy — across
/// router configurations and traffic patterns, showing how λ_sat moves
/// with VCs, buffer depth, packet size and mesh size (the reason every
/// bench re-anchors per configuration). Each probe is a bisection of
/// `sim::find_saturation` over a `Scenario` variant.
///
///   $ ./saturation_probe patterns=uniform,tornado vcs=2,8

#include <iostream>
#include <sstream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/saturation.hpp"
#include "sim/scenario.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  common::Config c;
  c.declare("patterns", "uniform,tornado,bitcomp,transpose,neighbor", "patterns to probe");
  c.declare("vcs", "8", "comma list of VC counts");
  c.declare("bufs", "4", "comma list of buffer depths");
  c.declare("packets", "20", "comma list of packet sizes");
  c.declare("meshes", "5", "comma list of square mesh sizes");
  c.declare_double("knee", 6.0, "latency knee factor (0 = throughput criterion only)");
  return common::run_main(c, argc, argv, [&] {
    sim::SaturationSearchOptions opt;
    opt.latency_knee_factor = c.get_double("knee");

    common::Table table({"mesh", "pattern", "VCs", "bufs", "packet", "lambda_sat",
                         "lambda_max(=0.9sat)"});
    std::stringstream patterns(c.get_string("patterns"));
    std::string pattern;
    while (std::getline(patterns, pattern, ',')) {
      for (const double mesh : c.get_double_list("meshes")) {
        for (const double vcs : c.get_double_list("vcs")) {
          for (const double bufs : c.get_double_list("bufs")) {
            for (const double pkt : c.get_double_list("packets")) {
              sim::Scenario cfg;
              cfg.network.width = static_cast<int>(mesh);
              cfg.network.height = static_cast<int>(mesh);
              cfg.network.num_vcs = static_cast<int>(vcs);
              cfg.network.vc_buffer_depth = static_cast<int>(bufs);
              cfg.packet_size = static_cast<int>(pkt);
              cfg.pattern = pattern;
              const double sat = sim::find_saturation(cfg, opt);
              table.add_row({std::to_string(static_cast<int>(mesh)) + "x" +
                                 std::to_string(static_cast<int>(mesh)),
                             pattern, common::Table::fmt(vcs, 0), common::Table::fmt(bufs, 0),
                             common::Table::fmt(pkt, 0), common::Table::fmt(sat, 3),
                             common::Table::fmt(sim::kLambdaMaxFraction * sat, 3)});
            }
          }
        }
      }
    }
    table.print(std::cout);
    std::cout << "\n(The paper quotes 0.42 for uniform traffic on the default 5x5 router.)\n";
    return 0;
  });
}
