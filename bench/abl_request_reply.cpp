/// \file abl_request_reply.cpp
/// Ablation E — request–reply traffic. The paper's Sec. III closes with:
/// "RMSD is therefore useful only for applications that are not sensitive
/// to delay. When delay matters, for instance in request-reply traffic,
/// RMSD would be an inefficient choice." This bench makes that claim
/// quantitative: short requests (4 flits) trigger data replies (16 flits)
/// after a 20-cycle service time; replies carry the request's timestamp,
/// so the class-1 delay IS the application-visible round-trip time.
///
/// The request–reply workload rides the Scenario API's custom-workload
/// escape hatch: a traffic factory builds the closed-loop model per run,
/// and the request rate is a custom sweep axis.

#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "traffic/request_reply.hpp"

using namespace nocdvfs;

namespace {

sim::Scenario::TrafficFactory rr_factory(double rate) {
  return [rate](const sim::Scenario& s) -> std::unique_ptr<traffic::TrafficModel> {
    noc::MeshTopology topo(s.network.width, s.network.height);
    traffic::RequestReplyParams p;
    p.request_rate = rate;
    p.request_size = 4;
    p.reply_size = 16;
    p.service_node_cycles = 20;
    p.seed = s.seed;
    return std::make_unique<traffic::RequestReplyTraffic>(topo, p);
  };
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("Ablation E", "Request-reply round-trip time under the three policies");
  return h.run(argc, argv, [&] {
    const sim::Scenario base = h.scenario();
    std::cout << "Anchoring on uniform traffic (same router, same lambda_max law)...\n";
    sim::Scenario op = sim::anchored(base, h.anchor(base));
    std::cout << "(the DMSD target is one-way; RTT adds the return path and service)\n\n";
    op.workload = sim::Scenario::Workload::Custom;

    const std::vector<double> rates = {0.002, 0.005, 0.010, 0.015};
    sim::SweepAxis rate_axis = sim::SweepAxis::custom("req_rate", {});
    for (const double rate : rates) {
      rate_axis.points.push_back({common::Table::fmt(rate, 3), [rate](sim::Scenario& s) {
        s.traffic_factory = rr_factory(rate);
      }});
    }
    const std::vector<sim::Policy> policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                               sim::Policy::Dmsd};
    const auto recs = h.sweep(op, {rate_axis, sim::SweepAxis::policies(policies)});

    common::Table table({"req rate", "lambda", "policy", "RTT[ns]", "1-way req[ns]",
                         "freq[GHz]", "power[mW]"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
      // Nominal offered load of this rate point, from a throwaway model.
      const double lambda =
          rr_factory(rates[i])(op)->offered_flits_per_node_cycle();
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const sim::RunResult& r = recs[i * policies.size() + p].result;
        table.add_row({common::Table::fmt(rates[i], 3), common::Table::fmt(lambda, 3),
                       sim::to_string(policies[p]), common::Table::fmt(r.avg_class1_delay_ns, 1),
                       common::Table::fmt(r.avg_class0_delay_ns, 1),
                       common::Table::fmt(r.avg_frequency_ghz(), 3),
                       common::Table::fmt(r.power_mw(), 1)});
      }
    }
    table.print(std::cout);
    std::cout << "\nReading: the RMSD round trip pays the non-monotonic delay twice per\n"
                 "transaction (request + reply both cross the slowed NoC); DMSD bounds the\n"
                 "RTT near 2x its one-way target plus service — quantifying the paper's\n"
                 "'RMSD would be an inefficient choice' for request-reply traffic.\n";
    return 0;
  });
}
