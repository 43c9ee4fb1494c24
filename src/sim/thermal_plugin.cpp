// Thermal plug-in (`thermal=on`): the energy ledger's per-tile drives heat
// an RC thermal model, the guard turns island peak temperatures into
// frequency caps, and throttle residency is accounted. The leakage the RC
// integration resolves at each tile's temperature goes back to the ledger.

#include <algorithm>

#include "dvfs/thermal_guard.hpp"
#include "obs/prof.hpp"
#include "sim/run_plugin.hpp"
#include "thermal/thermal_model.hpp"

namespace nocdvfs::sim {
namespace {

using common::Picoseconds;

class ThermalPlugin final : public RunPlugin {
 public:
  /// Thermal runs are plain meshes at concentration 1, so tile (router)
  /// ids are node ids and index the RC grid directly.
  explicit ThermalPlugin(const RunContext& ctx)
      : model_(ctx.cfg.network.width, ctx.cfg.network.height, ctx.cfg.thermal.params,
               ctx.cfg.thermal.step_ps),
        guard_(ctx.cfg.thermal.guard, ctx.n_islands),
        throttled_ps_(static_cast<std::size_t>(ctx.n_islands), 0) {}

  /// Integrate the RC network up to now under the ledger's drives for the
  /// interval that just closed (a zero-order hold), account throttle
  /// residency for the interval, and refresh the caps the control updates
  /// are about to apply.
  void before_control(RunContext& ctx) override {
    PROF_SCOPE("thermal_step");
    const Picoseconds now = ctx.clock.now();
    model_.advance(now, ctx.ledger.dynamic_w(), ctx.ledger.leakage_nominal_w());
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
  /// phases); only the statistics reset.
  void on_measure_begin(RunContext&) override {
    model_.reset_stats();
    leak_start_j_ = model_.tile_leakage_j();
    leak_ref_start_j_ = model_.tile_leakage_ref_j();
    std::fill(throttled_ps_.begin(), throttled_ps_.end(), Picoseconds{0});
  }

  /// Temperature-resolved attribution: charge each tile the leakage the RC
  /// integration accumulated at its actual temperatures over the
  /// measurement (the core then sums the ledger into islands and the run).
  void finalize(RunContext& ctx, RunResult& result) override {
    const std::size_t n = static_cast<std::size_t>(ctx.n_nodes);
    std::vector<double> leak_j(n), leak_ref_j(n);
    for (std::size_t t = 0; t < n; ++t) {
      leak_j[t] = model_.tile_leakage_j()[t] - leak_start_j_[t];
      leak_ref_j[t] = model_.tile_leakage_ref_j()[t] - leak_ref_start_j_[t];
    }
    ctx.ledger.add_leakage_j(leak_j);

    ThermalResult& th = result.thermal;
    th.enabled = true;
    th.peak_temp_c = model_.window_peak_c();
    th.mean_temp_c = model_.window_mean_c();
    th.final_peak_temp_c = model_.peak_temp_c();
    th.final_mean_temp_c = model_.mean_temp_c();
    th.tile_peak_temp_c = model_.tile_peak_c();
    for (const double j : leak_j) th.leakage_j += j;
    for (const double j : leak_ref_j) th.leakage_ref_j += j;

    const double dur_ps = static_cast<double>(result.measure_duration_ps);
    double residency_nodes = 0.0;
    for (int i = 0; i < ctx.n_islands; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      th.throttle_events += guard_.engage_count(i);
      if (dur_ps > 0.0) {
        residency_nodes += static_cast<double>(throttled_ps_[ii]) / dur_ps *
                           static_cast<double>(ctx.island(i).nodes);
      }

      IslandResult& isl = result.islands[ii];
      for (const noc::NodeId id : ctx.net.island_members(i)) {
        const double peak = th.tile_peak_temp_c[static_cast<std::size_t>(id)];
        isl.peak_temp_c = std::max(isl.peak_temp_c, peak);
      }
      isl.throttle_residency =
          dur_ps > 0.0 ? static_cast<double>(throttled_ps_[ii]) / dur_ps : 0.0;
      isl.throttle_events = guard_.engage_count(i);
    }
    th.throttle_residency = residency_nodes / static_cast<double>(ctx.n_nodes);
  }

 private:
  thermal::ThermalModel model_;
  dvfs::ThermalGuard guard_;
  std::vector<Picoseconds> throttled_ps_;
  std::vector<double> leak_start_j_, leak_ref_start_j_;  ///< per tile, at measurement start
  Picoseconds last_ = 0;  ///< previous control boundary
};

}  // namespace

std::unique_ptr<RunPlugin> make_thermal_plugin(const RunContext& ctx) {
  return std::make_unique<ThermalPlugin>(ctx);
}

}  // namespace nocdvfs::sim
