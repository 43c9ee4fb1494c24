/// \file multimedia_pipeline.cpp
/// Runs a multimedia encoder workload (the paper's Sec. VI scenario) on
/// the NoC under a chosen DVFS policy and reports the delay/power outcome
/// per application speed step — the view a system designer would use to
/// pick a policy for a streaming SoC. The speed × policy grid executes in
/// parallel through `SweepRunner`.
///
///   $ ./multimedia_pipeline app=vce policies=dmsd speeds=0.25,0.5,0.75,1.0
///
/// The rate matrix is calibrated so that speed 1.0 sits at 0.9× the
/// measured saturation of the mapped workload (`sim::find_anchors`; see
/// ARCHITECTURE.md, "Workloads").

#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/saturation.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.workload = sim::Scenario::Workload::App;
  defaults.phases.warmup_node_cycles = 80000;
  defaults.phases.measure_node_cycles = 80000;

  common::Config c;
  sim::Scenario::declare_keys(c, defaults);
  c.declare("speeds", "0.25,0.5,0.75,1.0", "application speeds relative to 75 fps");
  c.declare("policies", "all", "nodvfs|rmsd|dmsd|qbsd|all (overrides the policy key)");
  c.declare_int("threads", 0, "sweep worker threads (0 = all cores)");
  return common::run_main(c, argc, argv, [&] {
    sim::Scenario base = sim::Scenario::from_config(c);
    sim::check_scenario(base);
    base.workload = sim::Scenario::Workload::App;

    std::vector<sim::Policy> policies;
    if (c.get_string("policies") == "all") {
      policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd, sim::Policy::Dmsd};
    } else {
      policies = {sim::policy_from_string(c.get_string("policies"))};
    }
    const std::vector<double> speeds = c.get_double_list("speeds");

    const apps::TaskGraph graph = sim::app_graph(base.app);
    std::cout << "app '" << graph.name() << "': " << graph.nodes().size() << " blocks on "
              << graph.mesh_width() << "x" << graph.mesh_height() << " mesh, "
              << common::Table::fmt(graph.total_packets_per_frame(), 0)
              << " packets/frame, mean mapped hop distance "
              << common::Table::fmt(graph.mean_hops(), 2) << "\n";

    // Calibrate: speed 1.0 = 0.9 × measured saturation of this workload.
    sim::SaturationSearchOptions opt;
    opt.warmup_node_cycles = 25000;
    opt.measure_node_cycles = 25000;
    const sim::Anchors anchors = sim::find_anchors(base, opt);
    std::cout << "calibrated: lambda_max = " << common::Table::fmt(anchors.lambda_max, 3)
              << ", DMSD target = " << common::Table::fmt(anchors.target_delay_ns, 1)
              << " ns\n\n";
    base = sim::anchored(base, anchors);

    sim::SweepRunner::Options ropt;
    ropt.threads = static_cast<int>(c.get_int("threads"));
    sim::SweepRunner runner(ropt);
    const auto recs = runner.run(
        base, {sim::SweepAxis::speed(speeds), sim::SweepAxis::policies(policies)},
        "multimedia_pipeline");

    common::Table table({"speed", "policy", "delay[ns]", "p99[ns]", "freq[GHz]", "power[mW]",
                         "packets"});
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const sim::RunResult& r = recs[i * policies.size() + p].result;
        table.add_row({common::Table::fmt(speeds[i], 2), sim::to_string(policies[p]),
                       common::Table::fmt(r.avg_delay_ns, 1),
                       common::Table::fmt(r.p99_delay_ns, 1),
                       common::Table::fmt(r.avg_frequency_ghz(), 3),
                       common::Table::fmt(r.power_mw(), 1),
                       std::to_string(r.packets_delivered)});
      }
    }
    table.print(std::cout);
    return 0;
  });
}
