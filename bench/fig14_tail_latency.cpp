/// \file fig14_tail_latency.cpp
/// Extension figure: what do the control policies do to the *tail* of the
/// delay distribution? The paper compares RMSD and DMSD on mean delay
/// (Fig. 4/5); this bench re-asks the question at p50/p95/p99/p99.9 using
/// the streaming latency histograms every run records. Rate sensing clocks for
/// the average flit — it tolerates a long tail as long as injected flits
/// keep fitting the λ_max budget — while delay sensing reacts to the same
/// congestion transients that stretch the tail, so the interesting number
/// is the p99/p50 ratio per policy, across shapes with different path
/// diversity (mesh vs torus).
///
/// `topologies=` slices the matrix; `csv=`/`json=` write machine-readable
/// rows with the appended min/max and dist_* columns. The matrix is
/// topology × policy with the mesh rows first, and a `baseline` sweep group
/// repeats the policy sweep through a scenario that never touches a
/// topology key — its rows must match the topology=mesh rows bit-for-bit
/// (CI asserts this).
///
/// With `telemetry=windows|full telemetry_out=<base>` a dedicated export
/// run re-runs the mesh/RMSD cell with `pkt_trace=on` and writes
/// the timeline (histograms + sampled packet flights) that
/// `nocdvfs_report percentiles` and the Perfetto exporter render.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

namespace {

std::string ratio_fmt(double num, double den) {
  return den > 0.0 ? common::Table::fmt(num / den, 2) : "-";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("Figure 14 (extension)",
                   "tail latency (p50/p95/p99/p99.9) under RMSD vs DMSD");
  h.config().declare("topologies", "mesh,torus",
                     "comma list of topologies (mesh,torus,cmesh,dragonfly)");
  sim::SweepAxis topologies;
  const auto resolve = [&] {
    topologies = bench::topology_axis(common::split_csv(h.config().get_string("topologies")));
  };
  return h.run(argc, argv, resolve, [&] {
    const std::vector<sim::Policy> policies = {sim::Policy::Rmsd, sim::Policy::Dmsd};

    // One anchor set, derived on the paper's mesh, shared by every cell so
    // tail differences are attributable to the policy and the shape alone.
    const sim::Scenario base = bench::anchored_base(h.scenario(), h.anchor(h.scenario()));

    // --- topology x policy matrix -------------------------------------------
    // The first P rows are the mesh rows the baseline group must reproduce
    // bit-for-bit.
    const auto recs =
        h.sweep(base, {topologies, sim::SweepAxis::policies(policies)}, "fig14-tail");

    common::Table table({"topology", "policy", "mean ns", "p50 ns", "p95 ns", "p99 ns",
                         "p99.9 ns", "max ns", "p99/p50", "sat"});
    for (const sim::SweepRecord& rec : recs) {
      const sim::RunResult& r = rec.result;
      const sim::DelayDistResult::Slice& d = r.delay_dist.delay_ns;
      table.add_row({rec.point.coordinates[0], rec.point.coordinates[1],
                     common::Table::fmt(r.avg_delay_ns, 1), common::Table::fmt(d.p50, 1),
                     common::Table::fmt(d.p95, 1), common::Table::fmt(d.p99, 1),
                     common::Table::fmt(d.p999, 1), common::Table::fmt(d.max, 1),
                     ratio_fmt(d.p99, d.p50), r.saturated ? "y" : "n"});
    }
    std::cout << "\n--- tail latency (quantiles lie in the 1/8-octave bucket of the "
                 "exact order statistic) ---\n";
    table.print(std::cout);

    // --- dedicated export run: histograms + sampled packet flights ----------
    if (h.scenario().telemetry != "off" && !h.scenario().telemetry_out.empty()) {
      sim::Scenario s = base;
      s.policy.policy = sim::Policy::Rmsd;
      s.pkt_trace = "on";
      s.pkt_trace_rate = h.scenario().pkt_trace_rate;
      s.telemetry = h.scenario().telemetry;
      s.telemetry_out = h.scenario().telemetry_out;
      const sim::RunResult r = sim::run(s);
      std::cout << "\ntelemetry export (mesh rmsd pkt_trace=on): "
                << s.telemetry_out << ".nocobs + .json   windows="
                << r.telemetry.windows << "   p99=" << common::Table::fmt(
                       r.delay_dist.delay_ns.p99, 1)
                << " ns\n";
    }

    // Baseline rows for the CI identity check: the same policy sweep built
    // from a Scenario that never touches the topology keys. Bit-equal to the
    // topology=mesh rows above, or the sweep plumbing perturbed the run.
    h.sweep(base, {sim::SweepAxis::policies(policies)}, "baseline");

    // The claim, computed from the rows above. RMSD holds delay constant in
    // NoC cycles, not in ns, so its mean need not match DMSD's; the p99/p50
    // ratio is the tail signature.
    std::cout << "\nMeasured, RMSD vs DMSD per topology:\n";
    for (std::size_t i = 0; i + 1 < recs.size(); i += policies.size()) {
      const sim::RunResult& rmsd = recs[i].result;
      const sim::RunResult& dmsd = recs[i + 1].result;
      const sim::DelayDistResult::Slice& a = rmsd.delay_dist.delay_ns;
      const sim::DelayDistResult::Slice& b = dmsd.delay_dist.delay_ns;
      std::cout << "  " << recs[i].point.coordinates[0] << ": mean delay RMSD/DMSD "
                << ratio_fmt(rmsd.avg_delay_ns, dmsd.avg_delay_ns) << "x   p99/p50 RMSD "
                << ratio_fmt(a.p99, a.p50) << " vs DMSD " << ratio_fmt(b.p99, b.p50) << "\n";
    }
    return 0;
  });
}
