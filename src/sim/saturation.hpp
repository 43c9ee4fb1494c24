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
/// (policy/phases fields of `base` are ignored). The search bisects the
/// offered load λ (flits/node-cycle/node) over [opt.lo, opt.hi] for every
/// workload, writing each probe's load through `load_axis` (see
/// scenario.hpp), and returns the saturating value of the workload's load
/// field: λ for Synthetic, app speed at the scenario's traffic_scale, and
/// the replay time-warp (`trace_scale`) for Trace. Trace probes force
/// `trace_loop` so a finite capture acts as a steady-state source. Custom
/// workloads throw std::invalid_argument naming the workload.
double find_saturation(Scenario base, const SaturationSearchOptions& opt = {});

/// The paper's operating point: λ_max sits this fraction of the saturating
/// load ("10% lower than the saturation rate").
inline constexpr double kLambdaMaxFraction = 0.9;

/// The per-configuration anchors the paper derives before a sweep. RMSD
/// holds delay constant in NoC cycles, not in ns: below λ_max its clock
/// slows and its ns delay grows (Fig. 4).
struct Anchors {
  /// The saturating value of the workload's load field (find_saturation):
  /// λ, app speed at the base traffic_scale, or the time-warp.
  double saturation = 0.0;
  double lambda_sat = 0.0;       ///< saturating offered load, flits/node-cycle/node
  double lambda_max = 0.0;       ///< RMSD's load target, at 0.9 of the saturating axis value
  double target_delay_ns = 0.0;  ///< DMSD target: the No-DVFS delay at λ_max
  /// App workloads only (0 otherwise): the traffic_scale that puts speed
  /// 1.0 at λ_max.
  double traffic_scale = 0.0;
};

/// Anchors of `base`'s workload: finds the saturating field value
/// (find_saturation with `opt`), reads λ_sat through the load axis, places
/// the operating point at kLambdaMaxFraction × the saturating field value,
/// and takes the DMSD target from one No-DVFS run there with `base`'s own
/// phases.
///  - Synthetic and Trace: λ_max = 0.9·λ_sat; the probe runs with the load
///    field at 0.9 × saturation (a trace loops its replay).
///  - App: the rate matrix is calibrated instead (Fig. 10): traffic_scale
///    is multiplied by 0.9 × the saturating speed, so speed 1.0 is the
///    operating point; λ_max is mean_lambda there.
///  - Custom: throws std::invalid_argument, as find_saturation does.
Anchors find_anchors(const Scenario& base, const SaturationSearchOptions& opt = {});

/// A copy of `s` with the anchor-derived policy parameters applied (every
/// policy point of a sweep shares them); anchors of an app workload also
/// set its calibrated traffic_scale and speed 1.0.
Scenario anchored(Scenario s, const Anchors& anchors);

/// The operating point every bench and example sweeps from: `anchored(s,
/// anchors)` offering `load_fraction`·λ_sat (set_offered_lambda). The
/// anchors go first because an app's calibration rescales the
/// traffic_scale its load axis reads.
Scenario operating_point(Scenario s, const Anchors& anchors, double load_fraction);

}  // namespace nocdvfs::sim
