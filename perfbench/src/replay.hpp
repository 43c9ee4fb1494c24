#pragma once

/// \file replay.hpp
/// The traced pass: the benchmark assembles Network, SyntheticTraffic,
/// MultiClock and the island control bank itself and steps them in the
/// simulation kernel's order, timing each call into a layer from the
/// outside. To describe exactly the load that was timed, it replays the
/// timed run's per-island actuation trace onto its clock; the controllers
/// still run, and are timed, on the same window measurements, but their
/// outputs are not applied.

#include <cstdint>

#include "checks.hpp"
#include "noc/network.hpp"
#include "power/energy_model.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

/// Host time per layer (seconds) and the counts read at the same call
/// boundaries, for one replayed run.
struct LayerTrace {
  double wall_s = 0.0;  ///< the whole stepping loop, spans included
  double clock_s = 0.0;      ///< MultiClock::advance
  double node_tick_s = 0.0;  ///< TrafficModel::node_tick
  double tick_s = 0.0;       ///< Network::tick_island
  double phases_s = 0.0;     ///< Network::run_island_phases
  double deliveries_s = 0.0; ///< draining Network::delivered()
  double dvfs_s = 0.0;       ///< IslandControlBank::apply_update
  double power_s = 0.0;      ///< PowerAccumulator / TilePowerAccumulator calls
  double thermal_s = 0.0;    ///< ThermalModel::advance

  std::uint64_t clock_edges = 0;
  std::uint64_t node_tick_calls = 0;
  std::uint64_t node_ticks = 0;  ///< node_tick calls × nodes
  std::uint64_t island_steps = 0;
  std::uint64_t tiles_stepped = 0;  ///< Σ island_active_nodes after each tick
  std::uint64_t tile_slots = 0;     ///< Σ island tile count over the same steps
  std::uint64_t buffered_flit_sum = 0;  ///< Σ island_buffered_flits_now per step
  std::uint64_t buffer_capacity_sum = 0;
  std::uint64_t boundary_samples = 0;  ///< control boundaries sampled below
  std::uint64_t cdc_flit_sum = 0;  ///< Σ over islands of island_cdc_flit_occupancy
  std::uint64_t backlog_sum = 0;   ///< Σ total_source_backlog_flits
  std::uint64_t packets_drained = 0;
  std::uint64_t dvfs_updates = 0;
  std::uint64_t freq_changes = 0;
  std::uint64_t power_calls = 0;
  std::uint64_t thermal_advances = 0;
  std::uint64_t throttle_events = 0;
  std::uint64_t flit_hops = 0;  ///< crossbar traversals, all routers
  std::uint64_t packets_generated = 0;
  std::uint64_t stall_vc_alloc = 0;  ///< only with stall tracking on
  std::uint64_t stall_switch = 0;
  std::uint64_t stall_credit = 0;

  RunFingerprint measured;  ///< packets, mean delay and energy of the measure window
  FlitLedger ledger;

  /// Sum the times and counts of another run (`measured` and `ledger` are
  /// per run and stay as they are).
  LayerTrace& operator+=(const LayerTrace& o);
};

/// What a replay needs: the scenario, the simulator configuration and
/// energy model make_simulator resolved for it, and the timed run.
struct ReplayPlan {
  const nocdvfs::sim::Scenario& scenario;
  const nocdvfs::sim::SimulatorConfig& config;
  const nocdvfs::power::EnergyModel& energy;
  const nocdvfs::sim::RunResult& timed;
};

/// Step a freshly built `net` (from plan.config.network) through the timed
/// run. With `spans` off no clock is read inside the loop.
LayerTrace replay(nocdvfs::noc::Network& net, const ReplayPlan& plan, bool spans);

}  // namespace perfbench
