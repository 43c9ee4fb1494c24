// Thermal plug-in (`thermal=on`) and the run's energy slot in that mode:
// per-tile power drives an RC thermal model, the guard turns island peak
// temperatures into frequency caps, and throttle residency is accounted.
// Tiles sum to islands sum to the run total.

#include <algorithm>

#include "dvfs/thermal_guard.hpp"
#include "obs/prof.hpp"
#include "sim/run_plugin.hpp"
#include "thermal/thermal_model.hpp"

namespace nocdvfs::sim {
namespace {

using common::Picoseconds;

class ThermalPlugin final : public EnergySlot {
 public:
  explicit ThermalPlugin(const RunContext& ctx)
      : model_(ctx.cfg.network.width, ctx.cfg.network.height, ctx.cfg.thermal.params,
               ctx.cfg.thermal.step_ps),
        tiles_(ctx.energy, inventories(ctx.net)),
        guard_(ctx.cfg.thermal.guard, ctx.n_islands),
        activity_(static_cast<std::size_t>(ctx.n_nodes)),
        cycles_(static_cast<std::size_t>(ctx.n_nodes)),
        vdd_(static_cast<std::size_t>(ctx.n_nodes)),
        throttled_ps_(static_cast<std::size_t>(ctx.n_islands), 0) {
    snapshot(ctx);
    tiles_.start(ctx.clock.now(), activity_, cycles_);
  }

  /// Close the elapsed per-tile power interval (constant (V, F) per tile
  /// over it), integrate the RC network up to now under that zero-order
  /// hold, account throttle residency for the interval, and refresh the
  /// caps the control updates are about to apply.
  void before_control(RunContext& ctx) override {
    PROF_SCOPE("thermal_step");
    const Picoseconds now = ctx.clock.now();
    snapshot(ctx);
    tiles_.sample(now, activity_, cycles_, vdd_, ctx.measuring);
    model_.advance(now, tiles_.dynamic_w(), tiles_.leakage_nominal_w());
    if (ctx.measuring) {
      for (int i = 0; i < ctx.n_islands; ++i) {
        if (guard_.throttled(i)) throttled_ps_[static_cast<std::size_t>(i)] += now - last_;
      }
    }
    last_ = now;
    for (int i = 0; i < ctx.n_islands; ++i) {
      double peak = ctx.cfg.thermal.params.ambient_c;
      for (const noc::NodeId id : ctx.net.island_members(i)) {
        peak = std::max(peak, model_.tile_temp_c(id));
      }
      const bool was_throttled = guard_.throttled(i);
      const bool throttle = guard_.observe(i, peak);
      if (ctx.timeline != nullptr && throttle != was_throttled) {
        ctx.timeline->events.push_back(
            {throttle ? obs::EventKind::ThrottleEngage : obs::EventKind::ThrottleRelease, i,
             static_cast<std::uint64_t>(now), peak, 0.0});
      }
      const common::Hertz f_throttle = ctx.cfg.thermal.guard.f_throttle;
      ctx.island(i).cap =
          throttle ? (f_throttle > 0.0 ? f_throttle : ctx.bank.manager(i).f_min()) : 0.0;
    }
  }

  /// Warmup temperatures carry over (the die does not cool between
  /// phases); only the statistics and energy counters reset.
  void on_measure_begin(RunContext&) override {
    tiles_.reset_energy();
    model_.reset_stats();
    leak_start_j_ = model_.tile_leakage_j();
    leak_ref_start_j_ = model_.tile_leakage_ref_j();
    std::fill(throttled_ps_.begin(), throttled_ps_.end(), Picoseconds{0});
  }

  /// Temperature-resolved attribution: charge each tile the leakage the RC
  /// integration accumulated at its actual temperatures over the
  /// measurement, then sum tiles into the run total and into islands.
  void finalize(RunContext& ctx, RunResult& result) override {
    const std::size_t n = static_cast<std::size_t>(ctx.n_nodes);
    std::vector<double> leak_j(n), leak_ref_j(n);
    for (std::size_t t = 0; t < n; ++t) {
      leak_j[t] = model_.tile_leakage_j()[t] - leak_start_j_[t];
      leak_ref_j[t] = model_.tile_leakage_ref_j()[t] - leak_ref_start_j_[t];
    }
    tiles_.add_leakage_j(leak_j);
    for (const power::PowerBreakdown& tile : tiles_.tiles()) result.power.add_energy(tile);
    const Picoseconds elapsed = ctx.clock.now() - ctx.measure_start_ps;
    result.power.elapsed_ps = elapsed;

    ThermalResult& th = result.thermal;
    th.enabled = true;
    th.peak_temp_c = model_.window_peak_c();
    th.mean_temp_c = model_.window_mean_c();
    th.final_peak_temp_c = model_.peak_temp_c();
    th.final_mean_temp_c = model_.mean_temp_c();
    th.tile_peak_temp_c = model_.tile_peak_c();
    for (const double j : leak_j) th.leakage_j += j;
    for (const double j : leak_ref_j) th.leakage_ref_j += j;

    const double dur_ps = static_cast<double>(elapsed);
    double residency_nodes = 0.0;
    for (int i = 0; i < ctx.n_islands; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      th.throttle_events += guard_.engage_count(i);
      if (dur_ps > 0.0) {
        residency_nodes += static_cast<double>(throttled_ps_[ii]) / dur_ps *
                           static_cast<double>(ctx.island(i).nodes);
      }

      IslandResult& isl = result.islands[ii];
      isl.power.elapsed_ps = elapsed;
      for (const noc::NodeId id : ctx.net.island_members(i)) {
        const std::size_t t = static_cast<std::size_t>(id);
        isl.power.add_energy(tiles_.tiles()[t]);
        isl.peak_temp_c = std::max(isl.peak_temp_c, th.tile_peak_temp_c[t]);
      }
      isl.throttle_residency =
          dur_ps > 0.0 ? static_cast<double>(throttled_ps_[ii]) / dur_ps : 0.0;
      isl.throttle_events = guard_.engage_count(i);
    }
    th.throttle_residency = residency_nodes / static_cast<double>(ctx.n_nodes);
  }

 private:
  static std::vector<power::TileInventory> inventories(const noc::Network& net) {
    std::vector<power::TileInventory> tiles;
    tiles.reserve(static_cast<std::size_t>(net.num_nodes()));
    for (noc::NodeId id = 0; id < net.num_nodes(); ++id) tiles.push_back(net.node_inventory(id));
    return tiles;
  }

  void snapshot(const RunContext& ctx) {
    for (noc::NodeId id = 0; id < ctx.n_nodes; ++id) {
      const std::size_t t = static_cast<std::size_t>(id);
      const int isl = ctx.net.island_of(id);
      activity_[t] = ctx.net.node_activity(id);
      cycles_[t] = ctx.clock.noc_cycles(isl);
      vdd_[t] = ctx.bank.manager(isl).current_voltage();
    }
  }

  thermal::ThermalModel model_;
  power::TilePowerAccumulator tiles_;
  dvfs::ThermalGuard guard_;
  std::vector<power::ActivityCounters> activity_;
  std::vector<std::uint64_t> cycles_;
  std::vector<double> vdd_;
  std::vector<Picoseconds> throttled_ps_;
  std::vector<double> leak_start_j_, leak_ref_start_j_;  ///< per tile, at measurement start
  Picoseconds last_ = 0;  ///< previous control boundary
};

}  // namespace

std::unique_ptr<EnergySlot> make_thermal_plugin(const RunContext& ctx) {
  return std::make_unique<ThermalPlugin>(ctx);
}

}  // namespace nocdvfs::sim
