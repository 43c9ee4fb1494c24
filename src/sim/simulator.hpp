#pragma once

/// \file simulator.hpp
/// Top-level simulation: composes the multi-clock kernel, the (possibly
/// island-partitioned) network, a traffic model and the per-island DVFS
/// control bank, and runs the two-phase (settle → measure) protocol every
/// experiment uses.
///
/// Phase protocol:
///  1. *Warmup/settle* — traffic and the DVFS control loops run, statistics
///     are discarded. With adaptive warmup the phase extends until *every*
///     island's applied frequency is stable across a few consecutive
///     windows (the PI loop of DMSD needs tens of windows to converge from
///     cold start), bounded by `max_warmup_node_cycles`.
///  2. *Measure* — packet delays, throughput, activity and per-island
///     (V, F) segments accumulate; the window always starts and ends on
///     control-period boundaries so power segments align with actuations.
///
/// All islands share the control cadence (the period is defined in node
/// cycles and the node clock is global): at each control boundary every
/// island's controller runs, in ascending island order, on measurements
/// gathered from that island alone.
///
/// Saturation is flagged when the source backlog grows materially during
/// the measurement or delivery falls short of generation — the conditions
/// under which delay statistics stop converging.
///
/// `run` itself is only that protocol core. Thermal, telemetry, latency
/// histograms and host observability attach as plug-ins (sim/run_plugin.hpp)
/// that are built only when their configuration turns them on.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dvfs/dvfs_manager.hpp"
#include "dvfs/thermal_guard.hpp"
#include "noc/network.hpp"
#include "obs/telemetry.hpp"
#include "power/energy_model.hpp"
#include "power/vf_curve.hpp"
#include "sim/clock.hpp"
#include "sim/metrics.hpp"
#include "thermal/thermal_model.hpp"
#include "traffic/traffic_model.hpp"
#include "vfi/island_dvfs.hpp"

namespace nocdvfs::sim {

/// Thermal subsystem wiring: off by default, in which case the simulator's
/// behaviour (and its numerical results) are bit-identical to a build
/// without the subsystem.
struct ThermalConfig {
  bool enabled = false;
  thermal::ThermalParams params{};
  /// RC integration step (decoupled from the NoC clock); must respect the
  /// explicit-Euler stability bound (ThermalModel::stability_bound_s).
  common::Picoseconds step_ps = 1'000'000;  ///< 1000 ns
  dvfs::ThermalGuardConfig guard{};
};

struct SimulatorConfig {
  noc::NetworkConfig network{};  ///< includes the island partition (island_of)
  common::Hertz f_node = 1e9;
  std::uint64_t control_period_node_cycles = 10000;
  int flit_bits = 128;
  power::EnergyParams energy_params{};
  /// Bound on each island's (t, F, V) actuation trace; 0 = unbounded.
  std::size_t vf_trace_max = 0;
  ThermalConfig thermal{};
  /// Observability wiring: off by default, in which case the run (and its
  /// numerical results) are bit-identical to a build without src/obs/.
  obs::TelemetryConfig telemetry{};
  /// Packet flight recorder: sample whole packet journeys into the
  /// telemetry timeline. Only honoured when telemetry is enabled (the
  /// flights ride in the exported .nocobs/Perfetto files).
  bool pkt_trace = false;
  std::uint64_t pkt_trace_rate = 64;  ///< sample 1 in N packets (>= 1)
  /// Host phase profiler (RunResult::host.profile). Host-side only — the
  /// simulated metrics are bit-identical either way; off costs one
  /// predictable branch per scope.
  bool prof = false;
  /// Host memory breakdown (mem.* manifest entries), computed once at the
  /// end of the run; no hot-path counters.
  bool mem = false;
  /// Scenario key=value dump for the run-provenance manifest, as produced
  /// by Config::kv_pairs over the declared scenario surface. Empty when
  /// the Simulator was assembled without a Scenario (unit tests).
  std::vector<std::pair<std::string, std::string>> manifest_keys;
};

struct RunPhases {
  std::uint64_t warmup_node_cycles = 120000;
  std::uint64_t measure_node_cycles = 100000;
  bool adaptive_warmup = true;
  std::uint64_t max_warmup_node_cycles = 800000;
};

class Simulator {
 public:
  /// One controller per island, in island order (exactly one for the
  /// paper's single-domain configuration).
  Simulator(const SimulatorConfig& cfg, std::unique_ptr<traffic::TrafficModel> traffic,
            std::vector<std::unique_ptr<dvfs::DvfsController>> controllers,
            power::VfCurve curve);

  RunResult run(const RunPhases& phases);

  noc::Network& network() noexcept { return net_; }
  const noc::Network& network() const noexcept { return net_; }
  int num_islands() const noexcept { return bank_.num_islands(); }
  const SimulatorConfig& config() const noexcept { return cfg_; }
  const power::EnergyModel& energy_model() const noexcept { return energy_; }

 private:
  SimulatorConfig cfg_;
  noc::Network net_;
  std::unique_ptr<traffic::TrafficModel> traffic_;
  vfi::IslandControlBank bank_;
  power::EnergyModel energy_;
  MultiClock clock_;
};

}  // namespace nocdvfs::sim
