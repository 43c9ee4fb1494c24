/// \file fig8_sensitivity.cpp
/// Reproduces Fig. 8: sensitivity of the power–delay trade-off to router
/// and NoC parameters under uniform traffic. One parameter varies at a
/// time, exactly the paper's grid:
///   (a)(e) virtual channels   {2, 4, 8}
///   (b)(f) buffers per VC     {4, 8, 16}
///   (c)(g) packet size        {10, 15, 20}
///   (d)(h) mesh size          {4×4, 5×5, 8×8}
/// Every variant re-measures its own saturation rate (it moves with the
/// configuration), re-anchors λ_max and the DMSD target, and evaluates the
/// three policies at two relative loads. The verdict column checks the
/// paper's conclusion — delay penalty (×) exceeds power advantage (×) —
/// which must hold for every variation.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

namespace {

struct Variant {
  std::string family;
  std::string label;
  sim::Scenario scenario;
};

std::vector<Variant> build_variants(const sim::Scenario& base) {
  std::vector<Variant> out;
  for (const int vcs : {2, 4, 8}) {
    Variant v{"virtual channels", "VC=" + std::to_string(vcs), base};
    v.scenario.network.num_vcs = vcs;
    out.push_back(std::move(v));
  }
  for (const int bufs : {4, 8, 16}) {
    Variant v{"VC buffers", "buf=" + std::to_string(bufs), base};
    v.scenario.network.vc_buffer_depth = bufs;
    out.push_back(std::move(v));
  }
  for (const int pkt : {10, 15, 20}) {
    Variant v{"packet size", "pkt=" + std::to_string(pkt), base};
    v.scenario.packet_size = pkt;
    out.push_back(std::move(v));
  }
  for (const int mesh : {4, 5, 8}) {
    Variant v{"mesh size", std::to_string(mesh) + "x" + std::to_string(mesh), base};
    v.scenario.network.width = mesh;
    v.scenario.network.height = mesh;
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("Figure 8", "Sensitivity: VCs, buffers, packet size, mesh size");
  return h.run(argc, argv, [&] {
    common::Table table({"family", "variant", "l_sat", "load", "delay none", "delay rmsd",
                         "delay dmsd", "P none", "P rmsd", "P dmsd", "d-ratio", "p-ratio",
                         "verdict"});
    int verdicts_ok = 0, verdicts_total = 0;
    const std::vector<double> fracs = {0.45, 0.75};
    const std::vector<sim::Policy> policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                               sim::Policy::Dmsd};

    for (const Variant& v : build_variants(h.scenario())) {
      std::cout << "anchoring " << v.family << " / " << v.label << "...\n";
      const auto anchors = h.anchor(v.scenario);
      // Two operating points: mid load and high load (fractions of λ_sat).
      std::vector<double> lambdas;
      for (const double frac : fracs) lambdas.push_back(frac * anchors.lambda_sat);
      const auto recs =
          h.sweep(sim::anchored(v.scenario, anchors),
                  {sim::SweepAxis::lambda(lambdas), sim::SweepAxis::policies(policies)},
                  v.family + "/" + v.label);

      for (std::size_t i = 0; i < lambdas.size(); ++i) {
        const sim::RunResult& none = recs[i * policies.size() + 0].result;
        const sim::RunResult& rmsd = recs[i * policies.size() + 1].result;
        const sim::RunResult& dmsd = recs[i * policies.size() + 2].result;
        const double d_ratio = rmsd.avg_delay_ns / dmsd.avg_delay_ns;
        const double p_ratio = dmsd.power_mw() / rmsd.power_mw();
        // The paper's conclusion: the delay-based policy wins the trade-off,
        // i.e. what RMSD costs in delay exceeds what it saves in power.
        const bool ok = d_ratio >= p_ratio;
        verdicts_ok += ok ? 1 : 0;
        ++verdicts_total;
        table.add_row({v.family, v.label, common::Table::fmt(anchors.lambda_sat, 3),
                       common::Table::fmt(lambdas[i], 3),
                       common::Table::fmt(none.avg_delay_ns, 1),
                       common::Table::fmt(rmsd.avg_delay_ns, 1),
                       common::Table::fmt(dmsd.avg_delay_ns, 1),
                       common::Table::fmt(none.power_mw(), 1),
                       common::Table::fmt(rmsd.power_mw(), 1),
                       common::Table::fmt(dmsd.power_mw(), 1), common::Table::fmt(d_ratio, 2),
                       common::Table::fmt(p_ratio, 2), ok ? "DMSD" : "RMSD"});
      }
    }
    table.print(std::cout);
    std::cout << "\nTrade-off verdict: DMSD preferred in " << verdicts_ok << "/" << verdicts_total
              << " operating points (paper: the conclusion holds under ALL variations).\n";
    return 0;
  });
}
