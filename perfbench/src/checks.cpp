#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "sim/scenario.hpp"

namespace perfbench {

namespace sim = nocdvfs::sim;

namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

FlitLedger ledger_of(const nocdvfs::noc::Network& net) {
  FlitLedger l;
  l.generated = net.total_flits_generated();
  l.ejected = net.total_flits_ejected();
  l.in_network = net.flits_in_network();
  l.backlog = net.total_source_backlog_flits();
  l.dropped = net.total_flits_dropped();
  return l;
}

std::string conservation_problem(const FlitLedger& l) {
  const std::uint64_t accounted = l.ejected + l.in_network + l.backlog + l.dropped;
  if (l.generated == accounted) return "";
  return "flit conservation: generated " + std::to_string(l.generated) + " != ejected " +
         std::to_string(l.ejected) + " + in network " + std::to_string(l.in_network) +
         " + backlog " + std::to_string(l.backlog) + " + dropped " + std::to_string(l.dropped);
}

std::string island_energy_problem(const sim::RunResult& r) {
  double sum = 0.0;
  for (const sim::IslandResult& isl : r.islands) sum += isl.power.total_j();
  const double total = r.power.total_j();
  if (r.islands.empty() || !(total > 0.0)) return "island energy: no measured energy";
  if (std::abs(sum - total) <= 1e-9 * total) return "";
  return "island energy: islands sum to " + hex(sum) + " J, run total " + hex(total) + " J";
}

std::string saturation_problem(const sim::RunResult& r) {
  if (!r.saturated) return "";
  return "saturated at lambda " + std::to_string(r.offered_lambda) + " (backlog growth " +
         std::to_string(r.backlog_growth_flits) + " flits)";
}

RunFingerprint fingerprint_of(const sim::RunResult& r) {
  return {r.packets_delivered, r.avg_delay_ns, r.power.total_j()};
}

std::string to_string(const RunFingerprint& f) {
  return std::to_string(f.packets) + "/" + hex(f.delay_ns) + "/" + hex(f.energy_j);
}

std::string repeat_problem(const std::vector<std::string>& per_repetition) {
  for (std::size_t i = 1; i < per_repetition.size(); ++i) {
    if (per_repetition[i] != per_repetition[0]) {
      return "repetition " + std::to_string(i) + " fingerprint " + per_repetition[i] +
             " != repetition 0 " + per_repetition[0];
    }
  }
  return "";
}

std::string replay_problem(const RunFingerprint& timed, const RunFingerprint& traced) {
  if (timed.packets == traced.packets && timed.delay_ns == traced.delay_ns) return "";
  return "replay: traced " + std::to_string(traced.packets) + " packets, " + hex(traced.delay_ns) +
         " ns != timed " + std::to_string(timed.packets) + " packets, " + hex(timed.delay_ns) +
         " ns";
}

int run_self_tests(std::ostream& log) {
  int failures = 0;
  auto expect = [&](const char* what, bool fires, const std::string& problem) {
    if (fires == !problem.empty()) return;
    ++failures;
    log << "self-test " << what << ": expected the check to " << (fires ? "fire" : "pass")
        << (problem.empty() ? "" : ", got: " + problem) << '\n';
  };

  // A genuine small run: two islands so the energy sum has two terms.
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.islands = "rows";
  s.lambda = 0.05;
  s.control_period = 500;
  s.phases.adaptive_warmup = false;
  s.phases.warmup_node_cycles = 1000;
  s.phases.measure_node_cycles = 2000;
  auto simulator = sim::make_simulator(s);
  const sim::RunResult r = simulator->run(s.phases);

  const FlitLedger ledger = ledger_of(simulator->network());
  expect("conservation/genuine", false, conservation_problem(ledger));
  FlitLedger lost = ledger;
  lost.ejected -= 1;
  expect("conservation/lost flit", true, conservation_problem(lost));

  expect("island energy/genuine", false, island_energy_problem(r));
  sim::RunResult leaky = r;
  leaky.islands.back().power.clock_j *= 1.001;
  expect("island energy/doctored", true, island_energy_problem(leaky));

  expect("saturation/genuine", false, saturation_problem(r));
  sim::RunResult saturated = r;
  saturated.saturated = true;
  expect("saturation/doctored", true, saturation_problem(saturated));

  const RunFingerprint f = fingerprint_of(r);
  expect("repeat/genuine", false, repeat_problem({to_string(f), to_string(f), to_string(f)}));
  RunFingerprint nudged = f;
  nudged.energy_j = std::nextafter(f.energy_j, 0.0);
  expect("repeat/one ulp", true, repeat_problem({to_string(f), to_string(f), to_string(nudged)}));

  expect("replay/genuine", false, replay_problem(f, f));
  RunFingerprint shifted = f;
  shifted.delay_ns = std::nextafter(f.delay_ns, 1e300);
  expect("replay/one ulp", true, replay_problem(f, shifted));
  RunFingerprint short_by_one = f;
  short_by_one.packets -= 1;
  expect("replay/packet count", true, replay_problem(f, short_by_one));
  return failures;
}

}  // namespace perfbench
