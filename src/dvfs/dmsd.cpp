#include "dvfs/dmsd.hpp"

#include <stdexcept>

namespace nocdvfs::dvfs {

DmsdController::DmsdController(const DmsdConfig& cfg) : cfg_(cfg), pi_{cfg.u_init} {
  if (!(cfg.target_delay_ns > 0.0)) {
    throw std::invalid_argument("DmsdController: target delay must be positive");
  }
  if (!(cfg.ki > 0.0)) {
    throw std::invalid_argument("DmsdController: integral gain must be positive");
  }
  if (cfg.kp < 0.0) {
    throw std::invalid_argument("DmsdController: proportional gain must be non-negative");
  }
  if (cfg.u_init <= 0.0 || cfg.u_init > 1.0) {
    throw std::invalid_argument("DmsdController: u_init must be in (0, 1]");
  }
}

common::Hertz DmsdController::update(const ControlContext& ctx, const WindowMeasurements& m) {
  double e = pi_.e_prev;  // sample hold when no packet completed this window
  if (m.has_delay_sample()) {
    e = (m.avg_delay_ns - cfg_.target_delay_ns) / cfg_.target_delay_ns;
  }
  return pi_.step(e, cfg_.ki, cfg_.kp, ctx.f_min / ctx.f_max) * ctx.f_max;
}

void DmsdController::reset() { pi_.reset(cfg_.u_init); }

}  // namespace nocdvfs::dvfs
