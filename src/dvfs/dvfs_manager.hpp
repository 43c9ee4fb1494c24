#pragma once

/// \file dvfs_manager.hpp
/// The global "DVFS-Ctrl" block of the paper's Figs. 1 and 3: owns the
/// policy, clamps its frequency requests into the VF curve's range
/// (optionally snapping to discrete levels), derives the supply voltage,
/// and records the (t, F, V) actuation trace.
///
/// The control update period is expressed in node clock cycles: the paper
/// uses 10 000 cycles of the fastest clock and argues the measurement
/// transport and actuation latencies are negligible at that horizon; the
/// manager therefore applies the new operating point instantaneously at
/// the window boundary.

#include <memory>
#include <vector>

#include "common/units.hpp"
#include "dvfs/controller.hpp"
#include "power/vf_curve.hpp"

namespace nocdvfs::dvfs {

struct VfTracePoint {
  common::Picoseconds t = 0;
  common::Hertz f = 0.0;
  double vdd = 0.0;
};

class DvfsManager {
 public:
  DvfsManager(std::unique_ptr<DvfsController> controller, power::VfCurve curve,
              common::Hertz f_node, std::uint64_t control_period_node_cycles);

  std::uint64_t control_period_node_cycles() const noexcept { return control_period_; }
  common::Hertz f_min() const noexcept { return curve_.f_min(); }
  common::Hertz f_max() const noexcept { return curve_.f_max(); }

  common::Hertz current_frequency() const noexcept { return f_current_; }
  double current_voltage() const noexcept { return vdd_current_; }

  /// Run one control update; returns the (clamped, snapped) frequency now
  /// in effect. Records a trace point when the operating point moved.
  /// `f_cap` is an actuation-side frequency cap (a thermal throttle): when
  /// the snapped request exceeds it the applied frequency is floored down
  /// onto the curve at the cap — never rounded up, so a throttled domain
  /// cannot run above the cap. `f_cap = 0` means no cap.
  common::Hertz apply_update(common::Picoseconds now, const WindowMeasurements& m,
                             common::Hertz f_cap = 0.0);

  const DvfsController& controller() const noexcept { return *controller_; }
  DvfsController& controller() noexcept { return *controller_; }
  const std::vector<VfTracePoint>& trace() const noexcept { return trace_; }

  /// Bound the actuation trace to the `max_points` most recent points
  /// (0 = unbounded, the default). Long sweeps over jittery policies can
  /// otherwise accumulate one point per control window for the whole run.
  void set_trace_limit(std::size_t max_points);

  /// Reset policy state and return to the top of the range.
  void reset();

 private:
  std::unique_ptr<DvfsController> controller_;
  power::VfCurve curve_;
  common::Hertz f_node_;
  std::uint64_t control_period_;
  common::Hertz f_current_;
  double vdd_current_;
  std::vector<VfTracePoint> trace_;
  std::size_t trace_limit_ = 0;  ///< 0 = unbounded
};

}  // namespace nocdvfs::dvfs
