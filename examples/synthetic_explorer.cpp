/// \file synthetic_explorer.cpp
/// Command-line sweep tool over the experiment space. Every knob of the
/// paper's Secs. III–V is exposed as key=value via
/// `Scenario::declare_keys`, e.g.:
///
///   $ ./synthetic_explorer pattern=tornado policies=dmsd width=8 height=8
///
/// Pass policies=all to compare nodvfs/rmsd/dmsd side by side; the
/// lambda × policy grid executes in parallel through `SweepRunner`. λ is
/// the load of every workload: under `workload=app|trace` each point sets
/// the app speed or replay time-warp that offers it.

#include <iostream>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/saturation.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.policy.lambda_max = 0.0;       // 0 = derive from measured saturation
  defaults.policy.target_delay_ns = 0.0;  // 0 = No-DVFS delay at the derived lambda_max

  common::Config c;
  sim::Scenario::declare_keys(c, defaults);
  c.declare("lambdas", "0.05,0.1,0.15,0.2,0.25,0.3,0.35", "offered loads to sweep");
  c.declare("policies", "all", "nodvfs|rmsd|rmsd-closed|dmsd|qbsd|all (overrides policy)");
  c.declare_int("threads", 0, "sweep worker threads (0 = all cores)");
  return common::run_main(c, argc, argv, [&] {
    sim::Scenario base = sim::Scenario::from_config(c);
    sim::check_scenario(base);
    const std::vector<double> lambdas = c.get_double_list("lambdas");

    std::vector<sim::Policy> policies;
    const std::string policy_str = c.get_string("policies");
    if (policy_str == "all") {
      policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd, sim::Policy::Dmsd};
    } else {
      policies = {sim::policy_from_string(policy_str)};
    }

    const sim::PolicyConfig given = base.policy;
    if (given.lambda_max <= 0.0 || given.target_delay_ns <= 0.0) {
      const sim::Anchors anchors = sim::find_anchors(base);
      base = sim::anchored(base, anchors);
      if (given.lambda_max > 0.0) {
        base.policy.lambda_max = given.lambda_max;
      } else {
        std::cout << "# measured lambda_sat=" << anchors.lambda_sat
                  << "  lambda_max=" << anchors.lambda_max << "\n";
      }
      if (given.target_delay_ns > 0.0) {
        base.policy.target_delay_ns = given.target_delay_ns;
      } else {
        std::cout << "# DMSD target delay = " << anchors.target_delay_ns
                  << " ns (No-DVFS delay at the derived lambda_max)\n";
      }
    }

    sim::SweepRunner::Options ropt;
    ropt.threads = static_cast<int>(c.get_int("threads"));
    sim::SweepRunner runner(ropt);
    const auto recs = runner.run(
        base, {sim::SweepAxis::lambda(lambdas), sim::SweepAxis::policies(policies)},
        "synthetic_explorer");

    common::Table table({"lambda", "policy", "delay[ns]", "p99[ns]", "lat[cyc]", "freq[GHz]",
                         "Vdd[V]", "power[mW]", "delivered", "sat?"});
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const sim::SweepRecord& rec = recs[i * policies.size() + p];
        const sim::RunResult& r = rec.result;
        table.add_row({common::Table::fmt(sim::mean_lambda(rec.point.scenario), 3),
                       sim::to_string(policies[p]),
                       common::Table::fmt(r.avg_delay_ns, 1), common::Table::fmt(r.p99_delay_ns, 1),
                       common::Table::fmt(r.avg_latency_cycles, 1),
                       common::Table::fmt(r.avg_frequency_ghz(), 3),
                       common::Table::fmt(r.avg_voltage, 3), common::Table::fmt(r.power_mw(), 1),
                       common::Table::fmt(r.delivered_flits_per_node_cycle, 3),
                       r.saturated ? "yes" : "no"});
      }
    }
    table.print(std::cout);
    return 0;
  });
}
