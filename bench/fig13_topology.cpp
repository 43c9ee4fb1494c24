/// \file fig13_topology.cpp
/// Extension figure: does the paper's rate-vs-delay control comparison
/// survive the network shape? The original study fixes a 5×5 XY mesh; this
/// bench re-asks the RMSD-vs-DMSD question on a torus, a concentrated mesh
/// and a dragonfly, under deterministic, minimal-adaptive and UGAL-L
/// routing, and finally on a torus with injected link/router faults and
/// up*/down* reroute. The sensing channels react differently: rate
/// sensing is shape-blind (injected flits are injected flits), while delay
/// sensing absorbs whatever the topology does to hop counts and the
/// reroute does to path lengths — so DMSD re-targets transparently where
/// RMSD's λ_max anchor silently shifts meaning.
///
/// `topologies=`, `routings=` and `fault_specs=` slice the matrix;
/// `csv=`/`json=` write machine-readable rows with the appended
/// topology/routing/faults/max_hops/drop columns. A `baseline` sweep group
/// repeats the mesh runs through a scenario that never touches the
/// topology keys — its rows must match the topology=mesh routing=xy rows
/// bit-for-bit (CI asserts this), and CI additionally asserts that a
/// faulted torus row rerouted traffic (rerouted_pairs > 0) without losing
/// anything (dropped_packets == 0).

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  bench::Harness h("Figure 13 (extension)",
                   "RMSD vs DMSD across topologies, routing algorithms and faults");
  h.config().declare("topologies", "mesh,torus,cmesh,dragonfly",
                     "comma list of topologies (mesh,torus,cmesh,dragonfly)");
  h.config().declare("routings", "xy,adaptive,ugal",
                     "comma list of routing algorithms (xy,yx,adaptive,ugal)");
  h.config().declare("fault_specs", "off,links:2@0,links:1@40000+routers:1@120000",
                     "comma list of fault specs for the faulted-torus group");
  sim::SweepAxis topologies;
  sim::SweepAxis routings;
  sim::SweepAxis faults = sim::SweepAxis::custom("faults", {});
  const auto resolve = [&] {
    topologies = bench::topology_axis(common::split_csv(h.config().get_string("topologies")));
    routings = bench::routing_axis(common::split_csv(h.config().get_string("routings")));
    for (const std::string& spec : common::split_csv(h.config().get_string("fault_specs"))) {
      faults.points.push_back({spec, [spec](sim::Scenario& s) {
                                 s.network.topology = topo::TopologyKind::Torus;
                                 s.network.faults = spec == "off" ? std::string() : spec;
                               }});
      sim::Scenario s = h.scenario();
      faults.points.back().apply(s);
      // A malformed spec fails before the banner.
      common::parse_key_value("fault_specs", spec,
                              [&](const std::string&) { sim::check_scenario(s); });
    }
  };
  return h.run(argc, argv, resolve, [&] {
    const std::vector<sim::Policy> policies = {sim::Policy::Rmsd, sim::Policy::Dmsd};

    // One anchor set, derived on the paper's mesh: every topology runs the
    // same offered load and policy parameters, so row differences are
    // attributable to the shape and the routing alone. (Re-anchoring per
    // topology would also break the mesh-row identity with `baseline`.)
    const sim::Scenario base = bench::anchored_base(h.scenario(), h.anchor(h.scenario()));

    // --- topology x routing x policy matrix ---------------------------------
    const auto recs = h.sweep(base, {topologies, routings, sim::SweepAxis::policies(policies)},
                              "fig13-topology");

    common::Table table({"topology", "routing", "policy", "delay ns", "p99 ns", "hops",
                         "max", "P mW", "pJ/bit", "sat"});
    for (std::size_t t = 0; t < topologies.size(); ++t) {
      for (std::size_t a = 0; a < routings.size(); ++a) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
          const sim::RunResult& r = recs[(t * routings.size() + a) * policies.size() + p].result;
          table.add_row({topologies.points[t].label, routings.points[a].label,
                         sim::to_string(policies[p]), common::Table::fmt(r.avg_delay_ns, 1),
                         common::Table::fmt(r.p99_delay_ns, 1),
                         common::Table::fmt(r.avg_hops, 2), std::to_string(r.max_hops),
                         common::Table::fmt(r.power_mw(), 1),
                         common::Table::fmt(r.energy_per_bit_pj, 2), r.saturated ? "y" : "n"});
        }
      }
    }
    table.print(std::cout);

    // --- faulted torus: reroute under each control policy -------------------
    const auto frecs =
        h.sweep(base, {faults, sim::SweepAxis::policies(policies)}, "fig13-faults");

    std::cout << "\n--- faulted torus (xy + up*/down* reroute) ---\n";
    common::Table ftable({"faults", "policy", "delay ns", "hops", "max", "rerouted",
                          "unreach", "dropped", "sat"});
    for (std::size_t f = 0; f < faults.size(); ++f) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const sim::RunResult& r = frecs[f * policies.size() + p].result;
        ftable.add_row({faults.points[f].label, sim::to_string(policies[p]),
                        common::Table::fmt(r.avg_delay_ns, 1),
                        common::Table::fmt(r.avg_hops, 2), std::to_string(r.max_hops),
                        std::to_string(r.rerouted_pairs), std::to_string(r.unreachable_pairs),
                        std::to_string(r.dropped_packets), r.saturated ? "y" : "n"});
      }
    }
    ftable.print(std::cout);

    // --- dedicated telemetry export run -------------------------------------
    // With telemetry= and telemetry_out= set, re-run the most eventful cell
    // of the matrix (faulted torus under RMSD) once and export its timeline
    // — the artifact CI uploads and `nocdvfs_report` renders.
    if (h.scenario().telemetry != "off" && !h.scenario().telemetry_out.empty()) {
      sim::Scenario s = base;
      s.network.topology = topo::TopologyKind::Torus;
      s.network.faults = "links:2@0";
      s.policy.policy = sim::Policy::Rmsd;
      s.telemetry = h.scenario().telemetry;
      s.telemetry_out = h.scenario().telemetry_out;
      const sim::RunResult r = sim::run(s);
      std::cout << "\ntelemetry export (torus links:2@0 rmsd): " << s.telemetry_out
                << ".nocobs + .json   windows=" << r.telemetry.windows
                << "   busy_vc_cycles=" << r.telemetry.busy_vc_cycles << "\n";
    }

    // Baseline rows for the CI identity check: the same policy sweep built
    // from a Scenario whose topology keys are never touched. Bit-equal to
    // the topology=mesh routing=xy rows above, or the default path regressed.
    h.sweep(base, {sim::SweepAxis::policies(policies)}, "baseline");

    std::cout << "\nConclusion check: RMSD's λ_max anchor was measured on the mesh — on\n"
                 "shapes with different bisection it over- or under-clocks at the same\n"
                 "offered load, and a reroute that lengthens paths is invisible to it.\n"
                 "DMSD keeps regulating the quantity the user sees (delay), absorbing\n"
                 "topology and fault effects at the cost of tracking a moving target.\n";
    return 0;
  });
}
