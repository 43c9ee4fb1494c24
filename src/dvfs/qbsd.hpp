#pragma once

/// \file qbsd.hpp
/// Queue-Based Slow Down — the related-work alternative the paper
/// describes in Sec. II: processor-style DVFS that "monitors the status of
/// a workload queue and throttles the speed so that the queue never fills
/// up (core is too slow) or gets empty (too fast)" (Wu et al.), applied to
/// NoC router buffers (Yadav et al., LAURA-NoC) — here in the paper's
/// global single-domain setting.
///
/// A PI loop steers the mean router-buffer occupancy fraction towards a
/// setpoint:
///
///     E_n = (occ_n − occ*) / occ*
///     U_n = U_{n−1} + K_I·E_n + K_P·(E_n − E_{n−1})
///
/// Occupancy above the setpoint means the network is too slow (queues
/// filling) → speed up; below → slow down. The PI law is DMSD's (PiLoop),
/// sensing a *proxy* for delay rather than delay itself: the ablation
/// bench shows where the proxy is faithful and where it drifts (occupancy
/// saturates near zero at light load, so the delay guarantee is lost
/// exactly where RMSD also misbehaves).

#include "dvfs/dmsd.hpp"

namespace nocdvfs::dvfs {

struct QbsdConfig {
  double occupancy_setpoint = 0.15;  ///< target mean buffer-occupancy fraction
  double ki = 0.05;
  double kp = 0.025;
  double u_init = 1.0;
};

class QbsdController final : public DvfsController {
 public:
  explicit QbsdController(const QbsdConfig& cfg);

  common::Hertz update(const ControlContext& ctx, const WindowMeasurements& m) override;
  const char* name() const noexcept override { return "qbsd"; }
  void reset() override;

  const QbsdConfig& config() const noexcept { return cfg_; }
  double control_variable() const noexcept { return pi_.u; }
  double last_error() const noexcept override { return pi_.e_prev; }

 private:
  QbsdConfig cfg_;
  PiLoop pi_;
};

}  // namespace nocdvfs::dvfs
