#pragma once

/// \file power_model.hpp
/// Integrates switching activity over (V, F) segments into energy and
/// average power — the measurement-side counterpart of the DVFS loop.
///
/// DVFS changes voltage/frequency at control updates, so a measurement
/// interval is a sequence of segments each at constant (V, F). The
/// accumulator closes a segment whenever the operating point changes and on
/// `stop()`, charging:
///   * data-path event energy for the activity delta at the segment voltage,
///   * clock-tree energy for the NoC cycles elapsed in the segment,
///   * leakage for the wall-clock duration of the segment.

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "power/energy_model.hpp"

namespace nocdvfs::power {

/// Energy breakdown in joules plus derived average power.
struct PowerBreakdown {
  double datapath_j = 0.0;  ///< buffers + crossbar + allocators + links
  double clock_j = 0.0;
  double leakage_j = 0.0;
  common::Picoseconds elapsed_ps = 0;

  double total_j() const noexcept { return datapath_j + clock_j + leakage_j; }
  /// Add `o`'s energies (its elapsed time is the caller's business).
  void add_energy(const PowerBreakdown& o) noexcept {
    datapath_j += o.datapath_j;
    clock_j += o.clock_j;
    leakage_j += o.leakage_j;
  }
  double elapsed_s() const noexcept { return common::seconds_from_ps(elapsed_ps); }
  double average_power_w() const noexcept {
    return elapsed_ps ? total_j() / elapsed_s() : 0.0;
  }
  double average_power_mw() const noexcept { return average_power_w() * 1e3; }
};

/// Counts of the power-consuming structures in the network.
struct NetworkInventory {
  int num_routers = 0;
  int num_links = 0;        ///< unidirectional inter-router links
  int num_local_links = 0;  ///< injection + ejection channels
};

class PowerAccumulator {
 public:
  PowerAccumulator(const EnergyModel& model, NetworkInventory inventory);

  /// Open the first segment. `activity` is the network-wide running total,
  /// `noc_cycles` the global NoC cycle count at this instant.
  void start(common::Picoseconds now, const ActivityCounters& activity,
             std::uint64_t noc_cycles, double vdd, common::Hertz f);

  /// Close the open segment at `now` and open a new one at (vdd, f).
  void change_operating_point(common::Picoseconds now, const ActivityCounters& activity,
                              std::uint64_t noc_cycles, double vdd, common::Hertz f);

  /// Close the final segment. The accumulator can be re-started afterwards.
  void stop(common::Picoseconds now, const ActivityCounters& activity,
            std::uint64_t noc_cycles);

  bool running() const noexcept { return running_; }
  const PowerBreakdown& breakdown() const noexcept { return breakdown_; }

  /// Reset accumulated energy (keeps model/inventory).
  void reset() noexcept;

 private:
  void close_segment(common::Picoseconds now, const ActivityCounters& activity,
                     std::uint64_t noc_cycles);

  const EnergyModel* model_;
  NetworkInventory inventory_;
  PowerBreakdown breakdown_;

  bool running_ = false;
  common::Picoseconds seg_start_ps_ = 0;
  ActivityCounters seg_activity_{};
  std::uint64_t seg_cycles_ = 0;
  double vdd_ = 0.0;
  common::Hertz f_ = 0.0;
};

/// One-shot helper for constant-(V,F) intervals (No-DVFS runs, tests).
PowerBreakdown integrate_constant_vf(const EnergyModel& model, const NetworkInventory& inventory,
                                     const ActivityCounters& activity_delta,
                                     std::uint64_t noc_cycles, common::Picoseconds duration,
                                     double vdd);

/// Power-consuming structures attributed to ONE router tile: the router,
/// the directed inter-router links it drives, and its injection/ejection
/// channels. Summed over an island's members this reproduces the island's
/// `NetworkInventory`, so tile energies add up to the island energies.
struct TileInventory {
  int links_sourced = 0;  ///< directed inter-router links driven by this tile
  int local_links = 2;    ///< injection + ejection channels
};

/// Per-tile attribution mode of the power plane — the thermal subsystem's
/// measurement source. Where `PowerAccumulator` integrates one island-wide
/// activity stream over (V, F) segments, this resolves the same energies
/// to individual tiles: at every sampling boundary (a control-window edge,
/// where the per-tile operating point is constant over the elapsed
/// interval) it diffs per-tile activity/cycle snapshots and produces
///
///   * the tile's average *dynamic* power over the interval (datapath +
///     clock) — the heat drive the RC thermal network integrates, and
///   * the tile's *nominal leakage* power at the interval's voltage and
///     the reference temperature — which the thermal model rescales by
///     exp(k·(T − T_ref)) per integration step.
///
/// Datapath/clock energy accumulates here per tile; the temperature-
/// resolved leakage energy is integrated by the thermal model (which knows
/// the per-step temperatures) and injected back via `add_leakage_j`, so
/// each tile's `PowerBreakdown` satisfies datapath+clock+leakage == total
/// exactly, with leakage charged at the actual temperature.
class TilePowerAccumulator {
 public:
  TilePowerAccumulator(const EnergyModel& model, std::vector<TileInventory> tiles);

  int num_tiles() const noexcept { return static_cast<int>(tiles_.size()); }

  /// Open sampling at `now`. `activity[i]` / `cycles[i]` are tile i's
  /// running activity totals and its clock-domain cycle count.
  void start(common::Picoseconds now, const std::vector<ActivityCounters>& activity,
             const std::vector<std::uint64_t>& cycles);

  /// Close the interval [last boundary, now] — constant per-tile (V, F)
  /// over it — and refresh the drive vectors. When `accumulate` is set the
  /// interval's datapath/clock energies are charged to the per-tile
  /// breakdowns (the measurement window); warmup intervals only produce
  /// drives.
  void sample(common::Picoseconds now, const std::vector<ActivityCounters>& activity,
              const std::vector<std::uint64_t>& cycles, const std::vector<double>& vdd,
              bool accumulate);

  /// Drives of the most recently closed interval, one entry per tile.
  const std::vector<double>& dynamic_w() const noexcept { return dynamic_w_; }
  const std::vector<double>& leakage_nominal_w() const noexcept { return leakage_nominal_w_; }

  /// Charge externally integrated (temperature-resolved) leakage energy.
  void add_leakage_j(const std::vector<double>& leak_j);

  /// Zero the accumulated per-tile energies (measurement-window start).
  void reset_energy();

  const std::vector<PowerBreakdown>& tiles() const noexcept { return breakdowns_; }

 private:
  const EnergyModel* model_;
  std::vector<TileInventory> tiles_;
  std::vector<PowerBreakdown> breakdowns_;
  std::vector<double> dynamic_w_;
  std::vector<double> leakage_nominal_w_;
  std::vector<ActivityCounters> last_activity_;
  std::vector<std::uint64_t> last_cycles_;
  common::Picoseconds last_ps_ = 0;
  bool running_ = false;
};

}  // namespace nocdvfs::power
