#pragma once

/// \file thermal_model.hpp
/// Lumped RC thermal network of the mesh die: one thermal node per router
/// tile, lateral conductances between 4-neighbour tiles, a vertical
/// conductance from every tile into a shared heat-spreader node, and the
/// spreader's conductance into the ambient sink.
///
///           tile(x,y) ──R_lat── tile(x+1,y)          (per mesh edge)
///               │
///             R_vert
///               │
///           spreader ──R_spr── ambient (fixed T)
///
/// The network integrates with an *explicit Euler* scheme at a fixed
/// `step_ps` decoupled from the NoC clock: the caller hands the model a
/// zero-order-hold per-tile power drive (average dynamic power over the
/// elapsed interval plus the tile's nominal leakage at its current
/// voltage) and the model chops the interval into `step_ps` pieces. The
/// classic stability bound for explicit Euler on an RC network is
/// dt < 2·C/ΣG per node (Gershgorin); the constructor enforces the
/// twice-as-strict dt <= min_i C_i / ΣG_i so the integration has a 2×
/// margin, and reports the bound in the error message.
///
/// Leakage heat is temperature-dependent *inside* the integration: each
/// step charges P_leak(T) = P_leak_nominal · exp(k·(T − T_ref)) — the
/// Arrhenius-style factor `power::bounded_arrhenius` — both as heat input into the tile and into the per-tile accumulated
/// leakage-energy counters. That closes the temperature → leakage → power
/// → temperature loop self-consistently, and gives the power plane the
/// temperature-resolved leakage energy (alongside the reference-temperature
/// energy a temperature-blind model would have charged).
///
/// Calibration note: per-tile thermal resistances are *effective* values
/// calibrated so the paper's 5×5 mesh shows a 20–30 K hotspot rise at
/// NoC-attributable power levels (a few to ~15 mW per tile) with time
/// constants of tens of microseconds — i.e. the feedback loop exercises
/// within a standard measurement window. They are knobs, not derived
/// package physics.

#include <vector>

#include "common/units.hpp"
#include "power/energy_model.hpp"

namespace nocdvfs::thermal {

/// The Arrhenius factor exp(k·(T − T_ref)) the integration applies to
/// nominal leakage is bounded by `power::kMaxLeakTempScale` (see the
/// constant's doc for the thermal-runaway rationale).

struct ThermalParams {
  double ambient_c = 45.0;            ///< ambient / package sink temperature
  double temp_ref_c = 45.0;           ///< temperature the leakage constants are quoted at
  double rc_vertical_k_per_w = 3000.0;///< tile → spreader resistance [K/W]
  double rc_lateral_k_per_w = 6000.0; ///< tile ↔ 4-neighbour resistance [K/W]
  double r_spreader_k_per_w = 10.0;   ///< spreader → ambient resistance [K/W]
  double c_tile_j_per_k = 1.0e-8;     ///< tile heat capacity [J/K] (τ_vert ≈ 30 µs)
  double c_spreader_j_per_k = 1.0e-6; ///< spreader heat capacity [J/K] (τ ≈ 10 µs)
  /// Exponential leakage–temperature coefficient [1/K]: leakage doubles
  /// every ln2/k ≈ 17 K at the default 0.04.
  double leak_temp_coeff_per_k = 0.04;
};

class ThermalModel {
 public:
  /// Mesh of `width` × `height` tiles. Throws std::invalid_argument for a
  /// degenerate mesh, non-positive R/C parameters, or a `step_ps` above
  /// the explicit-Euler stability bound (the message names the bound).
  ThermalModel(int width, int height, const ThermalParams& params,
               common::Picoseconds step_ps);

  int num_tiles() const noexcept { return width_ * height_; }
  common::Picoseconds now() const noexcept { return now_; }
  const ThermalParams& params() const noexcept { return params_; }

  /// Largest `step_ps` the constructor accepts for this mesh/params
  /// combination: min_i C_i / ΣG_i over all nodes (half the theoretical
  /// explicit-Euler limit of 2·C/ΣG).
  static double stability_bound_s(int width, int height, const ThermalParams& params);

  /// Integrate the interval [now(), until] under a zero-order-hold drive:
  /// `dynamic_w[i]` is tile i's average datapath+clock power over the
  /// interval, `leakage_nominal_w[i]` its leakage power at its current
  /// voltage *at the reference temperature*. The interval is chopped into
  /// `step_ps` pieces (plus one shorter tail piece, which is always
  /// stable). `until` < now() throws std::invalid_argument.
  void advance(common::Picoseconds until, const std::vector<double>& dynamic_w,
               const std::vector<double>& leakage_nominal_w);

  // --- current state ---
  double tile_temp_c(int tile) const { return temps_c_.at(static_cast<std::size_t>(tile)); }
  double spreader_temp_c() const noexcept { return spreader_c_; }
  double peak_temp_c() const noexcept;  ///< max over tiles, current instant
  double mean_temp_c() const noexcept;  ///< mean over tiles, current instant

  // --- windowed statistics (since the last reset_stats) ---
  /// Per-tile running max, including intra-interval Euler steps.
  const std::vector<double>& tile_peak_c() const noexcept { return tile_peak_c_; }
  double window_peak_c() const noexcept;  ///< max of tile_peak_c
  /// Time-weighted average of the tile-mean temperature.
  double window_mean_c() const noexcept;
  void reset_stats();

  // --- cumulative leakage energy (since construction) ---
  /// Temperature-resolved leakage energy per tile [J].
  const std::vector<double>& tile_leakage_j() const noexcept { return leak_j_; }
  /// What a temperature-blind model would have charged (reference temp).
  const std::vector<double>& tile_leakage_ref_j() const noexcept { return leak_ref_j_; }

 private:
  void euler_step(double dt_s, const std::vector<double>& dynamic_w,
                  const std::vector<double>& leakage_nominal_w);

  int width_;
  int height_;
  ThermalParams params_;
  common::Picoseconds step_ps_;
  common::Picoseconds now_ = 0;

  std::vector<double> temps_c_;       ///< per-tile temperature [°C]
  double spreader_c_;
  std::vector<double> scratch_c_;     ///< next-step temperatures

  std::vector<double> tile_peak_c_;   ///< since reset_stats
  double mean_dt_sum_ = 0.0;          ///< Σ mean_temp·dt since reset_stats
  double dt_sum_ = 0.0;               ///< Σ dt since reset_stats

  std::vector<double> leak_j_;        ///< since construction
  std::vector<double> leak_ref_j_;
};

}  // namespace nocdvfs::thermal
