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
/// `layouts=` and `workloads=` slice the matrix; `csv=`/`json=` write
/// machine-readable rows including the per-island `freq_residency` and
/// `island_power_mw` columns. A `baseline` sweep group repeats the hotspot
/// runs through a scenario that never touches the island keys — its rows
/// must match the `islands=global` rows bit-for-bit (CI asserts this).

#include <iostream>
#include <optional>
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
  bench::UnevenWorkloads::declare_keys(h.config(), "fig11_vfi");
  sim::SweepAxis layouts;
  std::optional<bench::UnevenWorkloads> workloads;
  const auto resolve = [&] {
    layouts = bench::island_axis(common::split_csv(h.config().get_string("layouts")));
    workloads.emplace(h.config());
  };
  return h.run(argc, argv, resolve, [&] {
    const std::vector<sim::Policy> policies = {sim::Policy::Rmsd, sim::Policy::Dmsd,
                                               sim::Policy::Qbsd};

    // Anchors are derived once per synthetic pattern on the paper's global
    // configuration — every layout of a workload shares the same policy
    // parameters, so differences are attributable to the partition alone.
    for (const std::string& workload : workloads->names()) {
      std::cout << "\n--- workload: " << workload << " ---\n";
      const sim::Scenario base = workloads->build(h.scenario(), workload);
      const auto recs = h.sweep(base, {layouts, sim::SweepAxis::policies(policies)},
                                "fig11-" + workload);

      common::Table table({"layout", "policy", "islands", "delay ns", "p99 ns", "P mW",
                           "pJ/bit", "dF GHz", "sat"});
      for (std::size_t l = 0; l < layouts.size(); ++l) {
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
          const sim::RunResult& r = recs[l * policies.size() + pi].result;
          table.add_row({layouts.points[l].label, sim::to_string(policies[pi]),
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
    h.sweep(workloads->build(h.scenario(), "hotspot"), {sim::SweepAxis::policies(policies)},
            "baseline");

    std::cout << "\nConclusion check: with islands the rate signal stays local — RMSD islands\n"
                 "feeding a remote hotspot underclock and saturate sooner — while the delay\n"
                 "signal still reflects the whole path, so distributed DMSD degrades\n"
                 "gracefully at the cost of the synchronizer latency per crossing.\n";
    return 0;
  });
}
