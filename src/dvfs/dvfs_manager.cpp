#include "dvfs/dvfs_manager.hpp"

#include <cmath>
#include <stdexcept>

namespace nocdvfs::dvfs {

DvfsManager::DvfsManager(std::unique_ptr<DvfsController> controller, power::VfCurve curve,
                         common::Hertz f_node, std::uint64_t control_period_node_cycles)
    : controller_(std::move(controller)),
      curve_(std::move(curve)),
      f_node_(f_node),
      control_period_(control_period_node_cycles) {
  if (!controller_) throw std::invalid_argument("DvfsManager: null controller");
  if (control_period_node_cycles == 0) {
    throw std::invalid_argument("DvfsManager: control period must be positive");
  }
  if (!(f_node > 0.0)) throw std::invalid_argument("DvfsManager: node frequency must be positive");
  f_current_ = curve_.f_max();
  vdd_current_ = curve_.voltage_for(f_current_);
}

common::Hertz DvfsManager::apply_update(common::Picoseconds now, const WindowMeasurements& m,
                                        common::Hertz f_cap) {
  ControlContext ctx;
  ctx.now = now;
  ctx.f_node = f_node_;
  ctx.f_min = curve_.f_min();
  ctx.f_max = curve_.f_max();
  ctx.f_current = f_current_;

  const common::Hertz requested = controller_->update(ctx, m);
  common::Hertz applied = curve_.snap_frequency(requested);
  if (f_cap > 0.0 && applied > f_cap) applied = curve_.floor_frequency(f_cap);
  // 1 kHz dead-band: the VCO cannot resolve arbitrarily fine retunes, and
  // suppressing no-op changes keeps the power accumulator's segment list
  // (and the trace) proportional to real actuations.
  if (std::abs(applied - f_current_) > 1e3) {
    f_current_ = applied;
    vdd_current_ = curve_.voltage_for(applied);
    if (trace_limit_ > 0 && trace_.size() >= trace_limit_) {
      trace_.erase(trace_.begin(),
                   trace_.begin() + static_cast<std::ptrdiff_t>(trace_.size() - trace_limit_ + 1));
    }
    trace_.push_back({now, f_current_, vdd_current_});
  }
  return f_current_;
}

void DvfsManager::set_trace_limit(std::size_t max_points) {
  trace_limit_ = max_points;
  if (trace_limit_ > 0 && trace_.size() > trace_limit_) {
    trace_.erase(trace_.begin(),
                 trace_.begin() + static_cast<std::ptrdiff_t>(trace_.size() - trace_limit_));
  }
}

void DvfsManager::reset() {
  controller_->reset();
  f_current_ = curve_.f_max();
  vdd_current_ = curve_.voltage_for(f_current_);
  trace_.clear();
}

}  // namespace nocdvfs::dvfs
