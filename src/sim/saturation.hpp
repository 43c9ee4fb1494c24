#pragma once

/// \file saturation.hpp
/// Saturation measurement and the paper's anchoring procedure. The paper
/// anchors RMSD at λ_max = 0.9·λ_sat ("10% lower than the saturation rate,
/// which is 0.42 in this case") and DMSD at the No-DVFS delay there; every
/// bench and example derives both with `find_anchors` for the
/// configuration it sweeps, because saturation moves with VC count, buffer
/// depth, packet size, mesh size and traffic pattern.
///
/// λ_sat is found by bisection on offered load with short No-DVFS probe
/// runs at F = F_max; a probe is "saturated" when its source backlog grows
/// materially or delivery lags generation (RunResult::saturated).

#include "sim/scenario.hpp"

namespace nocdvfs::sim {

struct SaturationSearchOptions {
  double lo = 0.02;
  double hi = 1.0;
  double resolution = 0.005;          ///< bisection stops at this width
  std::uint64_t warmup_node_cycles = 40000;
  std::uint64_t measure_node_cycles = 40000;
  /// A probe also counts as saturated when its average latency exceeds this
  /// multiple of the zero-load latency — the "knee" definition of
  /// saturation the paper's plots imply (their latency curve goes vertical
  /// at the quoted 0.42). Set to 0 to use the pure throughput criterion.
  double latency_knee_factor = 6.0;
  /// Load at which the zero-load latency reference is measured.
  double zero_load_lambda = 0.05;
};

/// Saturation point of `base`'s workload, probed with No-DVFS runs
/// (policy/phases fields of `base` are ignored). The bisected quantity —
/// and hence the returned value — depends on the workload variant:
/// offered λ (flits/node-cycle/node) for Synthetic, relative application
/// speed for App at the scenario's traffic_scale, and the replay
/// time-warp (`trace_scale`) for Trace. Trace probes force
/// `trace_loop` so a finite capture acts as a steady-state source, and —
/// because scale 1.0 only means "as recorded" — `hi` grows geometrically
/// (up to 256×`opt.hi`) until the replay saturates; if it never does,
/// the expanded `hi` is returned. Custom workloads throw
/// std::invalid_argument (their load axis is not expressible here).
double find_saturation(Scenario base, const SaturationSearchOptions& opt = {});

/// The paper's operating point: λ_max sits this fraction of the saturating
/// load ("10% lower than the saturation rate").
inline constexpr double kLambdaMaxFraction = 0.9;

/// The per-configuration anchors the paper derives before a sweep. RMSD
/// holds delay constant in NoC cycles, not in ns: below λ_max its clock
/// slows and its ns delay grows (Fig. 4).
struct Anchors {
  /// The saturating value on the workload's own load axis (see
  /// find_saturation): λ, app speed at the provisional scale, or warp.
  double saturation = 0.0;
  double lambda_sat = 0.0;       ///< saturating offered load, flits/node-cycle/node
  double lambda_max = 0.0;       ///< RMSD's load target, at 0.9 of the saturating axis value
  double target_delay_ns = 0.0;  ///< DMSD target: the No-DVFS delay at λ_max
  /// App workloads only (0 otherwise): the traffic_scale that puts speed
  /// 1.0 at λ_max.
  double traffic_scale = 0.0;
};

/// Anchors of `base`'s workload: bisects its load axis (find_saturation
/// with `opt`), places the operating point at kLambdaMaxFraction × the
/// saturating axis value, reads λ_sat and λ_max through `mean_lambda`, and
/// takes the DMSD target from one No-DVFS run there with `base`'s own
/// phases.
///  - Synthetic: λ_max = 0.9·λ_sat; the probe runs at λ = λ_max.
///  - Trace: λ_sat = mean_lambda at the saturating warp, λ_max = 0.9·λ_sat;
///    the probe loops the replay at warp 0.9·saturation.
///  - App: the rate matrix is calibrated first (Fig. 10): a provisional
///    traffic_scale puts speed 1.0 at λ = 0.35, the speed axis is bisected
///    over [opt.lo, max(opt.hi, 2)], and traffic_scale is rescaled by
///    0.9·saturation so speed 1.0 is the operating point; λ_max is
///    mean_lambda there.
///  - Custom: throws std::invalid_argument, as find_saturation does.
Anchors find_anchors(const Scenario& base, const SaturationSearchOptions& opt = {});

/// A copy of `s` with the anchor-derived policy parameters applied (every
/// policy point of a sweep shares them); anchors of an app workload also
/// set its calibrated traffic_scale and speed 1.0.
Scenario anchored(Scenario s, const Anchors& anchors);

}  // namespace nocdvfs::sim
