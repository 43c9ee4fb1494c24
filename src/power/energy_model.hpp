#pragma once

/// \file energy_model.hpp
/// Event-energy model of the VC router and its links in a 28-nm
/// FDSOI-class low-power process.
///
/// The paper obtains power by importing BookSim switching activity into
/// Synopsys power estimation of the synthesized router. We substitute an
/// analytical model with the same structure:
///
///   P = Σ_events N_e · E_e(V)                (data-path dynamic energy)
///     + N_cycles · E_clk(V) · routers        (clock tree, idle + active)
///     + T · P_leak(V)                        (leakage)
///
/// with E(V) = E₀·(V/V₀)² and P_leak(V) = P₀·(V/V₀)³ (the super-quadratic
/// leakage fall-off of FDSOI with back-bias tracking).
///
/// Calibration anchors (reference geometry: 5 ports, 8 VCs × 4 flits,
/// 128-bit flits, 5×5 mesh): idle NoC ≈ 95 mW at (0.9 V, 1 GHz) and
/// ≈ 230–250 mW near the uniform-traffic saturation rate — matching the
/// paper's Fig. 6 endpoints. Per-event energies (≈0.5–1 pJ per flit per
/// component) are physically plausible for 128-bit datapaths at 28 nm.
/// Geometry scaling follows first-order area arguments: storage-dominated
/// terms scale with total buffer bits, crossbar terms with ports²·width.

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "power/activity.hpp"

namespace nocdvfs::power {

/// Numerical ceiling on the Arrhenius leakage–temperature factor
/// exp(k·(T − T_ref)), shared by `EnergyModel::leakage_scale(vdd, temp_k)`
/// and the thermal subsystem's RC integration so the two paths charge the
/// same energy. The temperature→leakage feedback is regenerative: past the
/// point where R_eff·P_leak·k·exp(k·ΔT) > 1 there is no finite fixed
/// point, and the ceiling (32× ≈ +87 K at the default k = 0.04/K) keeps a
/// runaway visible but finite instead of overflowing to inf.
inline constexpr double kMaxLeakTempScale = 32.0;

/// THE bounded Arrhenius factor: exp(k·ΔT) capped at `kMaxLeakTempScale`.
/// Single implementation shared by `EnergyModel::leakage_scale(vdd, temp_k)`
/// and the thermal RC integration, so the energy the two paths charge can
/// never desynchronize.
inline double bounded_arrhenius(double coeff_per_k, double delta_t_k) noexcept {
  return std::min(std::exp(coeff_per_k * delta_t_k), kMaxLeakTempScale);
}

/// Microarchitectural parameters the energy constants depend on.
struct RouterGeometry {
  int num_ports = 5;     ///< router radix (5 for a 2-D mesh)
  int num_vcs = 8;       ///< virtual channels per input port
  int buffer_depth = 4;  ///< flits per VC FIFO
  int flit_bits = 128;   ///< datapath width

  double storage_bits() const noexcept {
    return static_cast<double>(num_ports) * num_vcs * buffer_depth * flit_bits;
  }
};

/// The voltage scale factors (V/V0)^dyn and (V/V0)^leak of one supply
/// voltage: two `std::pow`s, which the energy ledger evaluates once per
/// island and interval, not once per tile.
struct VoltageScale {
  double dynamic = 1.0;
  double leakage = 1.0;
};

/// Nominal-voltage energy constants. All *_pj values are picojoules per
/// event for the *reference* geometry; `EnergyModel` scales them to the
/// actual geometry. Exposed so ablations can perturb the calibration.
struct EnergyParams {
  double v_nominal = 0.90;           ///< voltage at which constants are quoted [V]
  double e_buffer_write_pj = 0.75;   ///< per flit written to an input FIFO
  double e_buffer_read_pj = 0.55;    ///< per flit dequeued
  double e_crossbar_pj = 0.85;       ///< per flit through the switch
  double e_link_pj = 1.00;           ///< per flit on an inter-router link
  double e_local_link_pj = 0.45;     ///< per flit on injection/ejection channels
  double e_alloc_grant_pj = 0.060;   ///< per VC/SW allocation grant
  double e_alloc_request_pj = 0.012; ///< per arbiter request evaluated
  double e_clock_per_cycle_pj = 2.2; ///< router clock tree per clocked cycle
  double p_leak_router_mw = 1.40;    ///< router leakage at v_nominal
  double p_leak_link_mw = 0.10;      ///< per unidirectional inter-router link
  double dynamic_exponent = 2.0;     ///< E(V) = E0 (V/V0)^dyn
  double leakage_exponent = 3.0;     ///< P(V) = P0 (V/V0)^leak
  /// Arrhenius-style leakage–temperature coefficient [1/K]: the scale
  /// factor exp(k·(T − T_ref)) doubles leakage every ln2/k ≈ 17 K at the
  /// default. Only the temperature-aware overload of `leakage_scale` reads
  /// it, so temperature-blind callers are unaffected.
  double leak_temp_coeff_per_k = 0.04;
  double temp_ref_c = 45.0;          ///< temperature the leakage constants are quoted at
};

/// Scales the calibrated constants to a geometry and evaluates energies at a
/// given supply voltage. Immutable after construction.
class EnergyModel {
 public:
  explicit EnergyModel(RouterGeometry geometry, EnergyParams params = EnergyParams{});

  static RouterGeometry reference_geometry() noexcept { return RouterGeometry{}; }

  const EnergyParams& params() const noexcept { return params_; }

  /// Dynamic voltage scale factor (V/V0)^dyn.
  double dynamic_scale(double vdd) const noexcept;
  /// Leakage voltage scale factor (V/V0)^leak at the reference temperature.
  double leakage_scale(double vdd) const noexcept;
  /// Temperature-aware leakage scale: (V/V0)^leak · exp(k·(T − T_ref)),
  /// with the exponential bounded by `kMaxLeakTempScale`. `temp_k` is in
  /// kelvin; at the reference temperature this equals the voltage-only
  /// overload exactly. The thermal subsystem applies the identical
  /// (identically bounded) factor inside its integration, so energies
  /// agree between the two paths.
  double leakage_scale(double vdd, double temp_k) const noexcept;
  /// Both voltage scale factors of `vdd`; the energies below take them.
  VoltageScale voltage_scale(double vdd) const noexcept {
    return {dynamic_scale(vdd), leakage_scale(vdd)};
  }

  /// Data-path energy [J] for a batch of events.
  double event_energy_j(const ActivityCounters& events, const VoltageScale& s) const noexcept;
  /// Clock-tree energy [J] of ONE router for `cycles` clocked cycles.
  double clock_energy_j(std::uint64_t cycles, const VoltageScale& s) const noexcept {
    return static_cast<double>(cycles) * e_clock_ * s.dynamic;
  }
  /// Leakage power [W] of one router.
  double router_leakage_w(const VoltageScale& s) const noexcept {
    return p_leak_router_w_ * s.leakage;
  }
  /// Leakage power [W] of one unidirectional inter-router link.
  double link_leakage_w(const VoltageScale& s) const noexcept { return p_leak_link_w_ * s.leakage; }

  // Geometry-scaled per-event energies at nominal voltage [J]; exposed for
  // tests and for the microbench that validates scaling monotonicity.
  double buffer_write_j() const noexcept { return e_buf_wr_; }
  double link_j() const noexcept { return e_link_; }
  double clock_per_cycle_j() const noexcept { return e_clock_; }

 private:
  EnergyParams params_;
  // geometry-scaled nominal energies [J]
  double e_buf_wr_, e_buf_rd_, e_xbar_, e_link_, e_local_;
  double e_grant_, e_request_, e_clock_;
  double p_leak_router_w_, p_leak_link_w_;
};

}  // namespace nocdvfs::power
