#include "sim/saturation.hpp"

#include <stdexcept>
#include <utility>

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

}  // namespace

double find_saturation(Scenario base, const SaturationSearchOptions& opt) {
  validate(opt);
  const LoadAxis axis = load_axis(base);
  base.policy.policy = Policy::NoDvfs;
  base.phases = probe_phases(opt);
  // Probes loop a trace: a finite capture must be a steady-state source,
  // or a high time-warp would compress the whole stream into the warmup
  // (nothing generated in the measure window) and a low zero-load warp
  // would starve the knee reference.
  if (base.workload == Scenario::Workload::Trace) base.trace_loop = true;
  auto probe_at = [&](double lambda) {
    Scenario probe = base;
    axis.set(probe, lambda);
    return probe;
  };

  // Zero-load latency reference for the knee criterion.
  const double knee_latency_cycles =
      opt.latency_knee_factor > 0.0
          ? opt.latency_knee_factor * run(probe_at(opt.zero_load_lambda)).avg_latency_cycles
          : 0.0;

  auto saturated_at = [&](double lambda) {
    // Loads beyond one packet per node cycle cannot even be generated.
    if (lambda / base.packet_size > 1.0) return true;
    const Scenario probe = probe_at(lambda);
    try {
      const RunResult r = run(probe);
      if (r.saturated) return true;
      return knee_latency_cycles > 0.0 && r.avg_latency_cycles > knee_latency_cycles;
    } catch (const std::invalid_argument&) {
      // MatrixTraffic rejects a source above one packet per node cycle by
      // throwing: definitionally saturated.
      if (base.workload == Scenario::Workload::App) return true;
      throw;
    }
  };
  return axis.value_at(bisect(opt.lo, opt.hi, opt.resolution, saturated_at));
}

Anchors find_anchors(const Scenario& base, const SaturationSearchOptions& opt) {
  const LoadAxis axis = load_axis(base);
  Anchors a;
  a.saturation = find_saturation(base, opt);
  a.lambda_sat = axis.lambda_at(a.saturation);
  Scenario op = base;  // the operating point the target probe runs at
  if (base.workload == Scenario::Workload::App) {
    // Calibration (Fig. 10): the task graphs fix only the relative rate
    // matrix, so the operating point is folded into traffic_scale and
    // speed 1.0 runs at λ_max.
    op.traffic_scale *= kLambdaMaxFraction * a.saturation;
    op.speed = 1.0;
    a.traffic_scale = op.traffic_scale;
    a.lambda_max = mean_lambda(op);
  } else {
    op.*axis.field = kLambdaMaxFraction * a.saturation;
    if (base.workload == Scenario::Workload::Trace) op.trace_loop = true;
    a.lambda_max = kLambdaMaxFraction * a.lambda_sat;
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

Scenario operating_point(Scenario s, const Anchors& anchors, double load_fraction) {
  s = anchored(std::move(s), anchors);
  set_offered_lambda(s, load_fraction * anchors.lambda_sat);
  return s;
}

}  // namespace nocdvfs::sim
