/// \file fig9_appgraphs.cpp
/// Reproduces Fig. 9 in tabular form: the two multimedia communication
/// graphs with their mesh mappings — H.264 encoder on 4×4 (a) and Video
/// Conference Encoder on 5×5 (b) — including per-edge packets/frame, the
/// traffic totals, and the traffic-weighted mean hop distance of the
/// mapping (the quantity that actually enters the simulation).

#include <iostream>
#include <string>
#include <vector>

#include "apps/app_graphs.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "sim/scenario.hpp"

using namespace nocdvfs;

namespace {

void dump(const apps::TaskGraph& g) {
  std::cout << "\n--- " << g.name() << " : " << g.nodes().size() << " blocks on "
            << g.mesh_width() << "x" << g.mesh_height() << " mesh, " << g.edges().size()
            << " edges ---\n";

  common::Table placement({"task", "mesh (x,y)", "node id"});
  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    const auto& n = g.nodes()[i];
    std::string xy = "(";
    xy += std::to_string(n.placement.x);
    xy += ",";
    xy += std::to_string(n.placement.y);
    xy += ")";
    placement.add_row({n.name, xy, std::to_string(g.placement_node(static_cast<int>(i)))});
  }
  placement.print(std::cout);

  common::Table edges({"src", "dst", "packets/frame", "hops"});
  const noc::MeshTopology topo(g.mesh_width(), g.mesh_height());
  for (const auto& e : g.edges()) {
    const auto& s = g.nodes()[static_cast<std::size_t>(e.src_task)];
    const auto& d = g.nodes()[static_cast<std::size_t>(e.dst_task)];
    edges.add_row({s.name, d.name, common::Table::fmt(e.packets_per_frame, 0),
                   std::to_string(noc::MeshTopology::manhattan(s.placement, d.placement))});
  }
  std::cout << '\n';
  edges.print(std::cout);

  std::cout << "\ntotal traffic: " << common::Table::fmt(g.total_packets_per_frame(), 0)
            << " packets/frame at speed 1.0 (" << apps::kReferenceFps << " fps)\n"
            << "traffic-weighted mean hop distance: " << common::Table::fmt(g.mean_hops(), 2)
            << "\nmean offered load at 75 fps, 20-flit packets, 1 GHz node clock: "
            << common::Table::fmt(
                   g.mean_lambda(apps::kReferenceFps, 20, 1e9) * 1e3, 3)
            << "e-3 flits/cycle/node (before the Fig. 10 calibration scale)\n";
}

}  // namespace

int main(int argc, char** argv) {
  // No simulation runs here — the graphs are static data — so this bench
  // declares its one key rather than the Scenario harness.
  common::Config c;
  c.declare("apps", "h264,vce", "comma list of graphs to dump");
  return common::run_main(c, argc, argv, [&] {
    std::vector<apps::TaskGraph> graphs;  // an unknown name throws, naming h264 and vce
    for (const std::string& app : common::split_csv(c.get_string("apps"))) {
      graphs.push_back(sim::app_graph(app));
    }
    std::cout << "=================================================================\n"
                 "Figure 9 — H.264 and VCE communication graphs and NoC mapping\n"
                 "=================================================================\n"
                 "Edge connectivity reconstructed from the figure's vertex names and\n"
                 "weight multiset (see docs/ARCHITECTURE.md, \"Workloads\").\n";
    for (const apps::TaskGraph& g : graphs) dump(g);
    return 0;
  });
}
