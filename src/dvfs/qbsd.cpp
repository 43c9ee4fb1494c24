#include "dvfs/qbsd.hpp"

#include <stdexcept>

namespace nocdvfs::dvfs {

QbsdController::QbsdController(const QbsdConfig& cfg) : cfg_(cfg), pi_{cfg.u_init} {
  if (!(cfg.occupancy_setpoint > 0.0) || cfg.occupancy_setpoint >= 1.0) {
    throw std::invalid_argument("QbsdController: setpoint must be in (0, 1)");
  }
  if (!(cfg.ki > 0.0) || cfg.kp < 0.0) {
    throw std::invalid_argument("QbsdController: gains must be positive (ki) / non-negative (kp)");
  }
  if (cfg.u_init <= 0.0 || cfg.u_init > 1.0) {
    throw std::invalid_argument("QbsdController: u_init must be in (0, 1]");
  }
}

common::Hertz QbsdController::update(const ControlContext& ctx, const WindowMeasurements& m) {
  const double e =
      (m.avg_buffer_occupancy - cfg_.occupancy_setpoint) / cfg_.occupancy_setpoint;
  return pi_.step(e, cfg_.ki, cfg_.kp, ctx.f_min / ctx.f_max) * ctx.f_max;
}

void QbsdController::reset() { pi_.reset(cfg_.u_init); }

}  // namespace nocdvfs::dvfs
