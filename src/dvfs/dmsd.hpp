#pragma once

/// \file dmsd.hpp
/// Delay-based Max Slow Down (the paper's Sec. IV).
///
/// A discrete proportional-integral loop drives the average end-to-end
/// packet delay towards a target:
///
///     E_n = (D_measured − D_target) / D_target
///     U_n = U_{n−1} + K_I·E_n + K_P·(E_n − E_{n−1})
///     F_noc = U_n · F_max,   U_n clamped to [U_min, U_max]
///
/// The paper's gains are K_I = 0.025 and K_P = 0.0125 ("a good compromise
/// between stability and reactivity"); U_min = F_min/F_max and U_max = 1
/// mirror the VCO range (Fig. 3). The error is normalized by the target so
/// the gains are dimensionless and independent of the target's magnitude.
///
/// Implementation details beyond the paper's description, both standard
/// control practice:
///  * anti-windup — the integrator state is clamped with U, so a long
///    saturated stretch does not have to be "unwound";
///  * sample hold — a window that delivered no packets reuses the previous
///    error instead of injecting a spurious zero.

#include <algorithm>

#include "dvfs/controller.hpp"

namespace nocdvfs::dvfs {

/// The velocity-form PI state above, shared with QBSD (which runs the same
/// law on a buffer-occupancy error). U_max is 1; the first step has no
/// E_{n−1}, so its proportional term is zero.
struct PiLoop {
  double u = 1.0;
  double e_prev = 0.0;
  bool has_prev = false;

  /// One control step on the normalized error `e`; returns the new U_n.
  double step(double e, double ki, double kp, double u_min) {
    const double e_delta = has_prev ? (e - e_prev) : 0.0;
    u = std::clamp(u + ki * e + kp * e_delta, u_min, 1.0);
    e_prev = e;
    has_prev = true;
    return u;
  }

  void reset(double u_init) { *this = PiLoop{u_init}; }
};

struct DmsdConfig {
  double target_delay_ns = 150.0;
  double ki = 0.025;
  double kp = 0.0125;
  double u_init = 1.0;  ///< start at full speed; the loop slows down from there
};

class DmsdController final : public DvfsController {
 public:
  explicit DmsdController(const DmsdConfig& cfg);

  common::Hertz update(const ControlContext& ctx, const WindowMeasurements& m) override;
  const char* name() const noexcept override { return "dmsd"; }
  void reset() override;

  const DmsdConfig& config() const noexcept { return cfg_; }
  double control_variable() const noexcept { return pi_.u; }
  double last_error() const noexcept override { return pi_.e_prev; }

 private:
  DmsdConfig cfg_;
  PiLoop pi_;
};

}  // namespace nocdvfs::dvfs
