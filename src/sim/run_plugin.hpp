#pragma once

/// \file run_plugin.hpp
/// The seam between `Simulator::run`'s settle→measure core loop, which
/// owns the run's energy ledger, and the optional subsystems attached to
/// it. Each subsystem is one `RunPlugin` in its own file, built only when
/// its configuration turns it on (see docs/ARCHITECTURE.md, "Simulation
/// kernel", for the list and the hook order). An off subsystem is absent:
/// it costs nothing and cannot perturb the run.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "power/power_model.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace nocdvfs::sim {

/// Run state the core loop owns and the plug-ins read. Plug-ins write only
/// the per-island `cap` (the thermal guard), the ledger's leakage (the
/// thermal plug-in's `add_leakage_j`) and `timeline` (set by the telemetry
/// plug-in; the others append their events and sections to it).
struct RunContext {
  const SimulatorConfig& cfg;
  const RunPhases& phases;
  noc::Network& net;
  const vfi::IslandControlBank& bank;
  const power::EnergyModel& energy;
  const MultiClock& clock;
  const int n_islands;
  const int n_nodes;
  const std::uint64_t period;  ///< control period, node cycles
  power::TilePowerAccumulator ledger;  ///< the run's energy, by tile (router id)

  struct Island {
    int nodes = 0;
    double buffer_capacity = 0.0;
    // The open control window (reset at every update).
    double delay_sum_ns = 0.0;
    std::uint64_t packets = 0;
    std::uint64_t start_gen = 0;
    std::uint64_t start_inj = 0;
    std::uint64_t start_noc_cycles = 0;
    std::uint64_t occupancy_sum = 0;  ///< Σ buffered flits, one sample per island cycle
    dvfs::WindowMeasurements last_update;  ///< what the controller saw at the last update
    common::Hertz f_before_update = 0.0;   ///< frequency in force before the last update
    std::deque<double> recent_freqs;       ///< applied f of the last kSettleWindows updates
    common::Hertz cap = 0.0;               ///< cap for the next update; 0 = none
    // The measurement, opened when the settle phase ends.
    std::uint64_t measure_start_noc = 0;
    std::uint64_t measure_occupancy_sum = 0;
    common::RunningStats delay_stats;
    common::TimeWeightedAverage freq_avg;
    common::TimeWeightedAverage volt_avg;
    vfi::FreqResidency residency;
  };
  std::vector<Island> islands;
  bool measuring = false;
  common::Picoseconds measure_start_ps = 0;
  obs::Timeline* timeline = nullptr;  ///< null unless telemetry is on

  Island& island(int i) { return islands[static_cast<std::size_t>(i)]; }
  const Island& island(int i) const { return islands[static_cast<std::size_t>(i)]; }
  /// The controller inputs of island `i`'s current (still open) window.
  dvfs::WindowMeasurements measure_window(int i) const;
  /// An island is settled once its applied frequency spread over the last
  /// kSettleWindows control updates is at most kSettleTol of the highest.
  static constexpr int kSettleWindows = 4;
  static constexpr double kSettleTol = 0.02;
  bool island_settled(int i) const;
  bool settled() const;
};

/// Hooks in call order: `before_control` at every control boundary, once
/// the core sampled the ledger, then `after_control` once the updates ran;
/// `on_measure_begin` when settling ends; `finalize` after the core's
/// headline fields and latency distributions, before the core sums the
/// ledger into `RunResult::power`; `post_run` after the root scope.
class RunPlugin {
 public:
  RunPlugin() = default;
  RunPlugin(const RunPlugin&) = delete;  ///< the run holds plug-in addresses
  RunPlugin& operator=(const RunPlugin&) = delete;
  virtual ~RunPlugin() = default;
  virtual void before_control(RunContext&) {}
  virtual void after_control(RunContext&) {}
  virtual void on_measure_begin(RunContext&) {}
  virtual void finalize(RunContext&, RunResult&) {}
  virtual void post_run(RunContext&, RunResult&) {}
};

std::unique_ptr<RunPlugin> make_host_plugin(const RunContext& ctx);
std::unique_ptr<RunPlugin> make_telemetry_plugin(RunContext& ctx);
std::unique_ptr<RunPlugin> make_thermal_plugin(const RunContext& ctx);

}  // namespace nocdvfs::sim
