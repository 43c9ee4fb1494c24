/// \file trace_record_replay.cpp
/// Record → replay walkthrough of the trace subsystem, and the CI smoke
/// for it:
///
///   1. run a synthetic scenario with `record=` set, capturing the exact
///      injected packet stream to a `.noctrace` file;
///   2. replay the trace (`workload=trace`) under the same policy and
///      verify the headline metrics reproduce bit-identically;
///   3. replay the *same* trace under RMSD and DMSD — the apples-to-apples
///      controller comparison no stochastic workload can provide (both
///      rows show the identical measured offered λ).
///
///   $ ./trace_record_replay                         # default: 4×4, λ=0.15
///   $ ./trace_record_replay trace=run.noctrace lambda=0.2 csv=out.csv
///
/// Exits non-zero if the replay does not reproduce the recorded run.

#include <cmath>
#include <fstream>
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

using namespace nocdvfs;

namespace {

bool identical(double a, double b) { return a == b; }

}  // namespace

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.network.width = 4;
  defaults.network.height = 4;
  defaults.network.num_vcs = 4;
  defaults.packet_size = 8;
  defaults.lambda = 0.15;
  defaults.control_period = 2000;
  defaults.policy.lambda_max = 0.4;
  defaults.policy.target_delay_ns = 120.0;
  defaults.phases.warmup_node_cycles = 20000;
  defaults.phases.measure_node_cycles = 30000;
  defaults.phases.adaptive_warmup = false;

  common::Config config;
  sim::Scenario::declare_keys(config, defaults);
  config.declare("csv", "", "append headline CSV rows (groups: record, replay, policies)");
  return common::run_main(config, argc, argv, [&] {
    sim::Scenario base = sim::Scenario::from_config(config);
    sim::check_scenario(base);
    std::string trace_path = base.trace_path;
    if (trace_path.empty()) trace_path = "trace_record_replay.noctrace";
    base.trace_path.clear();

    std::ofstream csv_out;
    sim::SweepRunner runner;
    sim::CsvResultSink csv_sink(csv_out);
    if (const std::string csv_path = config.get_string("csv"); !csv_path.empty()) {
      csv_out = common::open_output(csv_path);
      runner.add_sink(csv_sink);
    }

    // --- 1. record ---------------------------------------------------------
    sim::Scenario recording = base;
    recording.record_path = trace_path;
    std::cout << "Recording '" << sim::to_string(base.workload) << "' workload to "
              << trace_path << " ...\n";
    const sim::RunResult original = runner.run(recording, {}, "record").front().result;

    // --- 2. replay under the same policy -----------------------------------
    sim::Scenario replay = base;
    replay.workload = sim::Scenario::Workload::Trace;
    replay.trace_path = trace_path;
    const sim::RunResult replayed = runner.run(replay, {}, "replay").front().result;

    const bool reproduced =
        identical(original.measured_offered_lambda, replayed.measured_offered_lambda) &&
        original.packets_delivered == replayed.packets_delivered &&
        identical(original.avg_delay_ns, replayed.avg_delay_ns) &&
        identical(original.power.total_j(), replayed.power.total_j()) &&
        identical(original.avg_frequency_hz, replayed.avg_frequency_hz);

    common::Table round_trip({"run", "offered λ", "delay [ns]", "freq [GHz]", "power [mW]",
                              "packets"});
    for (const auto* r : {&original, &replayed}) {
      round_trip.add_row({r == &original ? "recorded" : "replayed",
                          common::Table::fmt(r->measured_offered_lambda, 4),
                          common::Table::fmt(r->avg_delay_ns, 2),
                          common::Table::fmt(r->avg_frequency_ghz(), 3),
                          common::Table::fmt(r->power_mw(), 2),
                          std::to_string(r->packets_delivered)});
    }
    round_trip.print(std::cout);
    std::cout << (reproduced ? "round trip: bit-identical ✓"
                             : "round trip: MISMATCH — replay diverged from the recording")
              << "\n\n";

    // --- 3. one trace, every policy ----------------------------------------
    const std::vector<sim::Policy> policies = {sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                               sim::Policy::Dmsd};
    const auto records = runner.run(replay, {sim::SweepAxis::policies(policies)}, "policies");
    common::Table table({"policy", "offered λ", "delay [ns]", "freq [GHz]", "power [mW]",
                         "energy/bit [pJ]"});
    for (std::size_t i = 0; i < records.size(); ++i) {
      const sim::RunResult& r = records[i].result;
      table.add_row({sim::to_string(policies[i]),
                     common::Table::fmt(r.measured_offered_lambda, 4),
                     common::Table::fmt(r.avg_delay_ns, 2),
                     common::Table::fmt(r.avg_frequency_ghz(), 3),
                     common::Table::fmt(r.power_mw(), 2),
                     common::Table::fmt(r.energy_per_bit_pj, 3)});
    }
    table.print(std::cout);
    std::cout << "every policy replayed the identical packet sequence (same offered λ "
                 "column)\n";

    return reproduced ? 0 : 1;
  });
}
