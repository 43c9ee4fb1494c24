#include "sim/saturation.hpp"

#include <algorithm>
#include <stdexcept>

namespace nocdvfs::sim {

namespace {

RunPhases probe_phases(const SaturationSearchOptions& opt) {
  RunPhases phases;
  phases.warmup_node_cycles = opt.warmup_node_cycles;
  phases.measure_node_cycles = opt.measure_node_cycles;
  phases.adaptive_warmup = false;
  return phases;
}

void validate(const SaturationSearchOptions& opt) {
  if (!(opt.lo > 0.0) || !(opt.hi > opt.lo)) {
    throw std::invalid_argument("saturation search: need 0 < lo < hi");
  }
  if (!(opt.resolution > 0.0)) {
    throw std::invalid_argument("saturation search: resolution must be positive");
  }
  if (opt.latency_knee_factor < 0.0) {
    throw std::invalid_argument("saturation search: latency_knee_factor must be >= 0");
  }
}

/// Generic bisection: `hi` known saturated, `lo` known not; returns the
/// highest unsaturated point to within `resolution`.
template <typename SaturatedAt>
double bisect(double lo, double hi, double resolution, SaturatedAt&& saturated_at) {
  if (!saturated_at(hi)) return hi;
  if (saturated_at(lo)) return lo;
  while (hi - lo > resolution) {
    const double mid = 0.5 * (lo + hi);
    (saturated_at(mid) ? hi : lo) = mid;
  }
  return lo;
}

/// Per-workload description of the load axis the search bisects.
struct LoadAxis {
  /// Writes the bisected value into the probe scenario.
  void (*set)(Scenario&, double) = nullptr;
  /// Values that cannot even be generated count as saturated up front
  /// (synthetic: more than one packet per node cycle).
  bool (*infeasible)(const Scenario&, double) = nullptr;
  /// The traffic model itself may reject an overload value by throwing
  /// (MatrixTraffic at excessive speed) — definitionally saturated.
  bool invalid_argument_is_saturated = false;
  /// The axis has no a-priori ceiling (trace time-warp: 1.0 just means
  /// "as recorded"), so grow `hi` geometrically until it saturates.
  bool expand_hi = false;
};

double find_on_axis(const Scenario& base, const SaturationSearchOptions& opt,
                    const LoadAxis& axis) {
  // Zero-load latency reference for the knee criterion.
  double knee_latency_cycles = 0.0;
  if (opt.latency_knee_factor > 0.0) {
    Scenario probe = base;
    axis.set(probe, opt.zero_load_lambda);
    knee_latency_cycles = opt.latency_knee_factor * run(probe).avg_latency_cycles;
  }

  auto saturated_at = [&](double value) {
    if (axis.infeasible && axis.infeasible(base, value)) return true;
    Scenario probe = base;
    axis.set(probe, value);
    try {
      const RunResult r = run(probe);
      if (r.saturated) return true;
      return knee_latency_cycles > 0.0 && r.avg_latency_cycles > knee_latency_cycles;
    } catch (const std::invalid_argument&) {
      if (axis.invalid_argument_is_saturated) return true;
      throw;
    }
  };

  double lo = opt.lo;
  double hi = opt.hi;
  if (axis.expand_hi) {
    // Double hi until it saturates (each probe above is then a known-good
    // lo), bounded so a workload that can never saturate terminates; the
    // bisect below returns the unsaturated hi in that case.
    for (int i = 0; i < 8 && !saturated_at(hi); ++i) {
      lo = hi;
      hi *= 2.0;
    }
  }
  return bisect(lo, hi, opt.resolution, saturated_at);
}

}  // namespace

double find_saturation(Scenario base, const SaturationSearchOptions& opt) {
  validate(opt);
  base.policy.policy = Policy::NoDvfs;
  base.phases = probe_phases(opt);
  switch (base.workload) {
    case Scenario::Workload::Synthetic: {
      LoadAxis axis;
      axis.set = [](Scenario& s, double v) { s.lambda = v; };
      // Loads beyond one packet per node cycle cannot even be generated.
      axis.infeasible = [](const Scenario& s, double v) {
        return v / s.packet_size > 1.0;
      };
      return find_on_axis(base, opt, axis);
    }
    case Scenario::Workload::App: {
      LoadAxis axis;
      axis.set = [](Scenario& s, double v) { s.speed = v; };
      axis.invalid_argument_is_saturated = true;  // MatrixTraffic overload throw
      return find_on_axis(base, opt, axis);
    }
    case Scenario::Workload::Trace: {
      // Probes loop the trace: a finite capture must be a steady-state
      // source, or a high time-warp would compress the whole stream into
      // the warmup (nothing generated in the measure window) and a low
      // zero-load warp would starve the knee reference.
      base.trace_loop = true;
      LoadAxis axis;
      axis.set = [](Scenario& s, double v) { s.trace_scale = v; };
      axis.expand_hi = true;  // scale 1.0 is merely "as recorded", not a ceiling
      return find_on_axis(base, opt, axis);
    }
    case Scenario::Workload::Custom:
      break;
  }
  throw std::invalid_argument(
      "find_saturation: custom workloads have no declarative load axis to bisect");
}

Anchors find_anchors(const Scenario& base, const SaturationSearchOptions& opt) {
  Anchors a;
  Scenario op = base;  // the operating point the target probe runs at
  switch (base.workload) {
    case Scenario::Workload::Synthetic:
      a.saturation = find_saturation(base, opt);
      a.lambda_sat = a.saturation;
      a.lambda_max = kLambdaMaxFraction * a.lambda_sat;
      op.lambda = a.lambda_max;
      break;
    case Scenario::Workload::Trace: {
      a.saturation = find_saturation(base, opt);
      Scenario at_sat = base;
      at_sat.trace_scale = a.saturation;
      a.lambda_sat = mean_lambda(at_sat);
      a.lambda_max = kLambdaMaxFraction * a.lambda_sat;
      op.trace_scale = kLambdaMaxFraction * a.saturation;
      op.trace_loop = true;
      break;
    }
    case Scenario::Workload::App: {
      // The task graphs fix only the relative rate matrix; a provisional
      // scale putting speed 1.0 at λ = 0.35 keeps the speed search window
      // [lo, max(hi, 2)] around any mapped workload's saturation.
      op.speed = 1.0;
      op.traffic_scale = 1.0;
      op.traffic_scale = 0.35 / mean_lambda(op);
      SaturationSearchOptions speed_opt = opt;
      speed_opt.hi = std::max(opt.hi, 2.0);
      a.saturation = find_saturation(op, speed_opt);
      Scenario at_sat = op;
      at_sat.speed = a.saturation;
      a.lambda_sat = mean_lambda(at_sat);
      op.traffic_scale *= kLambdaMaxFraction * a.saturation;
      a.traffic_scale = op.traffic_scale;
      a.lambda_max = mean_lambda(op);
      break;
    }
    case Scenario::Workload::Custom:
      throw std::invalid_argument(
          "find_anchors: custom workloads have no declarative load axis to bisect");
  }
  op.policy.policy = Policy::NoDvfs;
  a.target_delay_ns = run(op).avg_delay_ns;
  return a;
}

Scenario anchored(Scenario s, const Anchors& anchors) {
  s.policy.lambda_max = anchors.lambda_max;
  s.policy.target_delay_ns = anchors.target_delay_ns;
  if (anchors.traffic_scale > 0.0) {
    s.traffic_scale = anchors.traffic_scale;
    s.speed = 1.0;
  }
  return s;
}

}  // namespace nocdvfs::sim
