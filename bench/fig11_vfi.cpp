/// \file fig11_vfi.cpp
/// Extension figure: rate-based vs delay-based control as *distributed*
/// controllers over voltage–frequency islands. The paper's DVFS-Ctrl block
/// retunes one global NoC clock; here the same policies run one instance
/// per island (global / quadrants / per_router) on workloads with very
/// uneven spatial load — hotspot, transpose, and a recorded packet trace —
/// and the comparison shows what each sensing channel loses when its
/// signal crosses clock domains: an island's rate reports stay local
/// (RMSD never sees the load converging on a remote hotspot), while delay
/// reports arrive at the receiver after crossing every boundary on the
/// path (DMSD sees the end-to-end effect but attributes it to the
/// destination island).
///
/// Accepts `key=value` overrides and `help=1`; `layouts=` and `workloads=`
/// slice the matrix; `csv=`/`json=` write machine-readable rows including
/// the per-island `freq_residency` and `island_power_mw` columns. A
/// `baseline` sweep group repeats the hotspot runs through a scenario that
/// never touches the island keys — its rows must match the
/// `islands=global` rows bit-for-bit (CI asserts this).

#include <filesystem>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

namespace {

/// Spread of the per-island time-weighted frequencies, in GHz.
double island_freq_spread_ghz(const sim::RunResult& r) {
  double lo = 1e30, hi = 0.0;
  for (const auto& isl : r.islands) {
    lo = std::min(lo, isl.avg_frequency_hz);
    hi = std::max(hi, isl.avg_frequency_hz);
  }
  return r.islands.empty() ? 0.0 : (hi - lo) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("Figure 11 (extension)",
                   "VF islands: distributed RMSD/DMSD/QBSD over clock-domain partitions");
  h.config().declare("layouts", "global,quadrants,per_router",
                     "comma list of island layouts to compare");
  h.config().declare("workloads", "hotspot,transpose,trace",
                     "comma list of workloads (hotspot,transpose,trace)");
  h.config().declare("trace_file", "bench/out/fig11_vfi.noctrace",
                     "scratch .noctrace recorded for the trace workload");
  return h.run(argc, argv, [&] {
    const std::vector<std::string> layouts = common::split_csv(h.config().get_string("layouts"));
    const std::vector<sim::Policy> policies = {sim::Policy::Rmsd, sim::Policy::Dmsd,
                                               sim::Policy::Qbsd};

    // Anchors are derived once per synthetic pattern on the paper's global
    // configuration — every layout of a workload shares the same policy
    // parameters, so differences are attributable to the partition alone.
    sim::Anchors hotspot_anchors{};
    bool have_hotspot_anchors = false;
    auto hotspot_anchored = [&](sim::Scenario s) {
      s.pattern = "hotspot";
      if (!have_hotspot_anchors) {
        hotspot_anchors = h.anchor(s);
        have_hotspot_anchors = true;
      }
      s = sim::anchored(s, hotspot_anchors);
      sim::set_offered_lambda(s, 0.6 * hotspot_anchors.lambda_sat);
      return s;
    };

    for (const std::string& workload : common::split_csv(h.config().get_string("workloads"))) {
      sim::Scenario base = h.scenario();
      std::cout << "\n--- workload: " << workload << " ---\n";
      if (workload == "hotspot") {
        base = hotspot_anchored(base);
      } else if (workload == "transpose") {
        base.pattern = "transpose";
        const auto anchors = h.anchor(base);
        base = sim::anchored(base, anchors);
        sim::set_offered_lambda(base, 0.6 * anchors.lambda_sat);
      } else if (workload == "trace") {
        // Record the anchored hotspot stream once (No-DVFS, so the captured
        // injection sequence is policy-independent), then replay the
        // identical packets under every layout/policy.
        const std::string trace_file = h.config().get_string("trace_file");
        const std::filesystem::path p(trace_file);
        if (p.has_parent_path()) {
          std::error_code ec;
          std::filesystem::create_directories(p.parent_path(), ec);
        }
        sim::Scenario rec = hotspot_anchored(h.scenario());
        rec.policy.policy = sim::Policy::NoDvfs;
        rec.record_path = trace_file;
        sim::run(rec);
        base = hotspot_anchored(h.scenario());
        base.workload = sim::Scenario::Workload::Trace;
        base.trace_path = trace_file;
        base.trace_loop = true;
        base.trace_scale = 1.0;
      } else {
        std::cerr << "unknown workload '" << workload << "' (skipping)\n";
        continue;
      }
      const auto recs =
          h.sweep(base, {sim::SweepAxis::islands(layouts), sim::SweepAxis::policies(policies)},
                  "fig11-" + workload);

      common::Table table({"layout", "policy", "islands", "delay ns", "p99 ns", "P mW",
                           "pJ/bit", "dF GHz", "sat"});
      for (std::size_t l = 0; l < layouts.size(); ++l) {
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
          const sim::RunResult& r = recs[l * policies.size() + pi].result;
          table.add_row({layouts[l], sim::to_string(policies[pi]),
                         std::to_string(r.islands.size()),
                         common::Table::fmt(r.avg_delay_ns, 1),
                         common::Table::fmt(r.p99_delay_ns, 1),
                         common::Table::fmt(r.power_mw(), 1),
                         common::Table::fmt(r.energy_per_bit_pj, 2),
                         common::Table::fmt(island_freq_spread_ghz(r), 3),
                         r.saturated ? "y" : "n"});
        }
      }
      table.print(std::cout);
    }

    // Baseline rows for the CI identity check: the same hotspot scenarios
    // built from a Scenario whose island keys are never touched. Bit-equal
    // to the islands=global rows above, or the default path regressed.
    {
      const sim::Scenario base = hotspot_anchored(h.scenario());
      h.sweep(base, {sim::SweepAxis::policies(policies)}, "baseline");
    }

    std::cout << "\nConclusion check: with islands the rate signal stays local — RMSD islands\n"
                 "feeding a remote hotspot underclock and saturate sooner — while the delay\n"
                 "signal still reflects the whole path, so distributed DMSD degrades\n"
                 "gracefully at the cost of the synchronizer latency per crossing.\n";
    return 0;
  });
}
