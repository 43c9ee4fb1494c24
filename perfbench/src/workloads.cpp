#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

using nocdvfs::sim::Policy;
using nocdvfs::sim::Scenario;
using nocdvfs::sim::SweepAxis;
using nocdvfs::sim::SweepPoint;
using nocdvfs::sim::SweepRunner;

std::vector<SweepPoint> Workload::points() const {
  if (is_sweep()) return SweepRunner::expand(base, axes);
  SweepPoint p;
  p.scenario = base;
  return {p};
}

namespace {

/// 32×32 mesh, four quadrant islands under DMSD, thermal on, uniform load
/// just below saturation. Router stepping (island_step) dominates host
/// time; four clock domains, the CDC fifos and the thermal/power plug-ins
/// are all active. The run spans 25 control windows, enough for the island
/// frequencies to leave f_max and settle apart from each other. The PI
/// gains are four times the paper's so the loops settle
/// inside those windows: with the paper's gains the islands are still
/// slowing during the measurement, the network keeps filling, and the
/// short window can read as saturated.
Workload quadrants32(std::uint64_t seed) {
  Workload w;
  w.name = "quadrants32";
  Scenario& s = w.base;
  s.network.width = 32;
  s.network.height = 32;
  s.islands = "quadrants";
  s.lambda = 0.04;
  s.policy.policy = Policy::Dmsd;
  s.policy.target_delay_ns = 150.0;
  s.policy.ki = 0.1;
  s.policy.kp = 0.05;
  s.thermal = true;
  s.control_period = 150;
  s.phases.adaptive_warmup = false;
  s.phases.warmup_node_cycles = 2250;
  s.phases.measure_node_cycles = 1500;
  s.seed = seed;
  return w;
}

/// The paper's platform and protocol (Figs. 4/6/7): 5×5 mesh, No-DVFS /
/// RMSD / DMSD over a load axis from low load to just below saturation,
/// adaptive warmup, control period 10 000, two SweepRunner workers. Many
/// short single-island runs, so per-run setup, control windows, sweep
/// scheduling and the result sinks carry weight.
Workload paper5_sweep(std::uint64_t seed) {
  Workload w;
  w.name = "paper5_sweep";
  Scenario& s = w.base;
  s.seed = seed;
  s.phases.warmup_node_cycles = 20000;
  s.phases.measure_node_cycles = 20000;
  s.phases.max_warmup_node_cycles = 40000;
  w.axes = {SweepAxis::lambda({0.1, 0.2, 0.3}),
            SweepAxis::policies({Policy::NoDvfs, Policy::Rmsd, Policy::Dmsd})};
  w.sweep_threads = 2;
  return w;
}

/// 64×64 mesh, one global island under RMSD, uniform load so low that
/// most tiles are parked. Traffic generation for 4096 nodes, skip-idle
/// bookkeeping, setup and memory weigh most here; contended router
/// stages are rare.
Workload sparse64(std::uint64_t seed) {
  Workload w;
  w.name = "sparse64";
  Scenario& s = w.base;
  s.network.width = 64;
  s.network.height = 64;
  s.lambda = 0.0005;
  s.policy.policy = Policy::Rmsd;
  s.control_period = 2000;
  s.phases.adaptive_warmup = false;
  s.phases.warmup_node_cycles = 4000;
  s.phases.measure_node_cycles = 10000;
  s.seed = seed;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "quadrants32") return quadrants32(seed);
  if (name == "paper5_sweep") return paper5_sweep(seed);
  if (name == "sparse64") return sparse64(seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (valid: quadrants32 paper5_sweep sparse64)");
}

}  // namespace perfbench
