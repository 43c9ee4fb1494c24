#pragma once

/// \file power_model.hpp
/// Integrates switching activity into energy and average power — the
/// measurement-side counterpart of the DVFS loop. DVFS changes (V, F) at
/// control updates, so a measurement is a sequence of constant-(V, F)
/// intervals, and `segment_energy` is the one formula for an interval:
///   * data-path event energy for the activity delta at the voltage,
///   * clock-tree energy for the NoC cycles elapsed, per router,
///   * leakage power, charged for the interval's duration (or rescaled by
///     temperature first, by the thermal model).
/// `TilePowerAccumulator` is the kernel's energy ledger for every run.

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
  double average_power_mw() const noexcept {
    return elapsed_ps ? total_j() / elapsed_s() * 1e3 : 0.0;
  }
};

/// Counts of the power-consuming structures of a network or an island.
struct NetworkInventory {
  int num_routers = 0;
  int num_links = 0;        ///< unidirectional inter-router links
  int num_local_links = 0;  ///< injection + ejection channels
};

/// A tile is the inventory with one router: the router, the directed links
/// it drives and its NIs' local channels. An island's tiles sum to its
/// inventory, so tile energies add up to island energies.
using TileInventory = NetworkInventory;

/// What one inventory spends over one constant-(V, F) interval.
struct SegmentEnergy {
  double datapath_j = 0.0;
  double clock_j = 0.0;
  double leakage_w = 0.0;  ///< at the reference temperature
};

/// THE interval formula: `activity` events and `cycles` clocked cycles of
/// every router in `inventory`, at voltage scale `s`.
SegmentEnergy segment_energy(const EnergyModel& model, const NetworkInventory& inventory,
                             const ActivityCounters& activity, std::uint64_t cycles,
                             const VoltageScale& s);

/// Island-wide integration over (V, F) segments. Not used by the kernel: it
/// is the tests' reference oracle, and the benchmark program compiles
/// against it.
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
  VoltageScale scale_{};
};

/// The energy ledger: every run's energy, resolved to tiles. At every
/// sampling boundary (a control-window edge, where each tile's operating
/// point is constant over the elapsed interval) it diffs per-tile
/// activity/cycle snapshots through `segment_energy` and produces each
/// tile's average *dynamic* power (datapath + clock; the heat drive of the
/// RC thermal network) and its *nominal leakage* power at the reference
/// temperature. Datapath/clock energy accumulates per tile. Leakage is
/// charged once per tile: at the reference temperature by
/// `charge_nominal_leakage` (thermal off), or as the thermal model's
/// temperature-resolved integral via `add_leakage_j` (thermal on).
class TilePowerAccumulator {
 public:
  TilePowerAccumulator(const EnergyModel& model, std::vector<TileInventory> tiles);

  /// Open sampling at `now`. `activity[i]` / `cycles[i]` are tile i's
  /// running activity totals and its clock-domain cycle count.
  void start(common::Picoseconds now, const std::vector<ActivityCounters>& activity,
             const std::vector<std::uint64_t>& cycles);

  /// Close the interval [last boundary, now] — constant per-tile (V, F)
  /// over it, at voltage scale `scale[i]` — and refresh the drive vectors.
  /// When `accumulate` is set the interval's datapath/clock energies are
  /// charged to the per-tile breakdowns (the measurement window); warmup
  /// intervals only produce drives.
  void sample(common::Picoseconds now, const std::vector<ActivityCounters>& activity,
              const std::vector<std::uint64_t>& cycles, const std::vector<VoltageScale>& scale,
              bool accumulate);
  /// The same at supply voltage `vdd[i]` (two `std::pow`s per tile).
  void sample(common::Picoseconds now, const std::vector<ActivityCounters>& activity,
              const std::vector<std::uint64_t>& cycles, const std::vector<double>& vdd,
              bool accumulate);

  /// Charge the last interval's nominal leakage for its duration: the
  /// leakage of a run without a thermal model.
  void charge_nominal_leakage();

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
  double last_dur_s_ = 0.0;  ///< duration of the last closed interval
  bool running_ = false;
};

}  // namespace nocdvfs::power
