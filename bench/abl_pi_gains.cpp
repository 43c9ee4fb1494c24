/// \file abl_pi_gains.cpp
/// Ablation B — DMSD PI gain sweep. The paper reports K_I = 0.025 and
/// K_P = 0.0125 as "a good compromise between stability and reactivity";
/// this bench quantifies that compromise: per gain pair it reports the
/// steady tracking error against the delay target, the frequency ripple
/// (actuation churn), and the settle time of the adaptive warmup.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

int main(int argc, char** argv) {
  bench::Harness h("Ablation B", "DMSD PI gains: stability vs reactivity");
  return h.run(argc, argv, [&] {
    const sim::Scenario base = h.scenario();
    const auto anchors = h.anchor(base);
    constexpr double kLoad = 0.45;  // of lambda_sat
    std::cout << "operating point lambda = "
              << common::Table::fmt(kLoad * anchors.lambda_sat, 3) << "\n\n";

    struct GainPair {
      double ki, kp;
      const char* note;
    };
    const std::vector<GainPair> gains = {
        {0.00625, 0.003125, "1/4 paper"},
        {0.0125, 0.00625, "1/2 paper"},
        {0.025, 0.0125, "paper"},
        {0.05, 0.025, "2x paper"},
        {0.1, 0.05, "4x paper"},
        {0.2, 0.1, "8x paper"},
        {0.025, 0.0, "I-only"},
    };

    sim::Scenario op = sim::operating_point(base, anchors, kLoad);
    op.policy.policy = sim::Policy::Dmsd;

    sim::SweepAxis gain_axis = sim::SweepAxis::custom("gains", {});
    for (const GainPair& g : gains) {
      gain_axis.points.push_back({g.note, [g](sim::Scenario& s) {
        s.policy.ki = g.ki;
        s.policy.kp = g.kp;
      }});
    }
    const auto recs = h.sweep(op, {gain_axis});

    common::Table table({"ki", "kp", "note", "delay[ns]", "err vs target", "freq ripple",
                         "settle[cyc]", "actuations"});
    for (std::size_t i = 0; i < gains.size(); ++i) {
      const GainPair& g = gains[i];
      const sim::RunResult& r = recs[i].result;

      // Frequency ripple: stddev of the actuation trace during measurement.
      common::RunningStats freq;
      for (const auto& p : r.vf_trace) freq.add(p.f / 1e9);
      const double err = (r.avg_delay_ns - anchors.target_delay_ns) / anchors.target_delay_ns;
      table.add_row({common::Table::fmt(g.ki, 4), common::Table::fmt(g.kp, 5), g.note,
                     common::Table::fmt(r.avg_delay_ns, 1),
                     common::Table::fmt(100.0 * err, 1) + "%",
                     common::Table::fmt(freq.stddev(), 4),
                     std::to_string(r.warmup_node_cycles_used),
                     std::to_string(r.vf_trace.size())});
    }
    table.print(std::cout);
    std::cout << "\nReading: small gains settle slowly and stop short of the target (the\n"
                 "error column); large gains track tightly on this STATIC load — their\n"
                 "stability cost appears under load transients and measurement noise, where\n"
                 "aggressive loops overreact (ablation F shows the step response). The\n"
                 "paper's (0.025, 0.0125) trades a small steady error for damped actuation —\n"
                 "its 'compromise between stability and reactivity'.\n";
    return 0;
  });
}
