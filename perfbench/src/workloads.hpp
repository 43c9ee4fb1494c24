#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads. Each is a batch: a fixed amount of
/// simulated work, expressed as a base scenario plus (for the sweep) the
/// axes SweepRunner expands. The only input that varies between
/// invocations is the traffic seed.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  nocdvfs::sim::Scenario base;
  /// Empty for single-run workloads; the sweep workload's axes otherwise.
  std::vector<nocdvfs::sim::SweepAxis> axes;
  /// SweepRunner worker threads (sweep workload only).
  int sweep_threads = 1;

  bool is_sweep() const noexcept { return !axes.empty(); }
  /// The runs of one batch, in SweepRunner's row-major order.
  std::vector<nocdvfs::sim::SweepPoint> points() const;
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
