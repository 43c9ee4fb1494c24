#pragma once

/// \file checks.hpp
/// Output checks the benchmark applies to every run, read through the
/// library's public counters. Each check returns an empty string when it
/// holds and a one-line description of the violation otherwise, so a
/// self-test can feed it a doctored input and see it fire.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

/// The flit ledger of one network at the end of a run.
struct FlitLedger {
  std::uint64_t generated = 0;
  std::uint64_t ejected = 0;
  std::uint64_t in_network = 0;
  std::uint64_t backlog = 0;
  std::uint64_t dropped = 0;
};

FlitLedger ledger_of(const nocdvfs::noc::Network& net);

/// generated == ejected + in network + source backlog + dropped.
std::string conservation_problem(const FlitLedger& ledger);

/// Island energies sum to the run total (relative 1e-9: with thermal on,
/// the total and the islands sum the same tiles in different orders).
std::string island_energy_problem(const nocdvfs::sim::RunResult& r);

/// The workloads are sized below saturation.
std::string saturation_problem(const nocdvfs::sim::RunResult& r);

/// The simulated outcome of one run, exact.
struct RunFingerprint {
  std::uint64_t packets = 0;
  double delay_ns = 0.0;
  double energy_j = 0.0;
};

RunFingerprint fingerprint_of(const nocdvfs::sim::RunResult& r);

/// "packets/delay/energy" with the doubles in hexfloat.
std::string to_string(const RunFingerprint& f);

/// Every repetition of a batch produced the same fingerprint string.
std::string repeat_problem(const std::vector<std::string>& per_repetition);

/// The traced replay measured the same packets and mean delay as the
/// timed run, bit for bit.
std::string replay_problem(const RunFingerprint& timed, const RunFingerprint& traced);

/// Feed every check one genuine and one doctored input; returns the number
/// of checks that misbehaved and logs each to `log`.
int run_self_tests(std::ostream& log);

}  // namespace perfbench
