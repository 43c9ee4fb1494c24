#include "power/power_model.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace nocdvfs::power {

using common::Picoseconds;

SegmentEnergy segment_energy(const EnergyModel& model, const NetworkInventory& inventory,
                             const ActivityCounters& activity, std::uint64_t cycles,
                             const VoltageScale& s) {
  SegmentEnergy e;
  e.datapath_j = model.event_energy_j(activity, s);
  e.clock_j = model.clock_energy_j(cycles, s) * static_cast<double>(inventory.num_routers);
  e.leakage_w = model.router_leakage_w(s) * inventory.num_routers +
                model.link_leakage_w(s) * (inventory.num_links + 0.5 * inventory.num_local_links);
  return e;
}

PowerAccumulator::PowerAccumulator(const EnergyModel& model, NetworkInventory inventory)
    : model_(&model), inventory_(inventory) {
  if (inventory.num_routers <= 0) {
    throw std::invalid_argument("PowerAccumulator: inventory needs at least one router");
  }
  if (inventory.num_links < 0 || inventory.num_local_links < 0) {
    throw std::invalid_argument("PowerAccumulator: negative link counts");
  }
}

void PowerAccumulator::start(Picoseconds now, const ActivityCounters& activity,
                             std::uint64_t noc_cycles, double vdd, common::Hertz /*f*/) {
  NOCDVFS_ASSERT(!running_, "PowerAccumulator::start while running");
  running_ = true;
  seg_start_ps_ = now;
  seg_activity_ = activity;
  seg_cycles_ = noc_cycles;
  scale_ = model_->voltage_scale(vdd);
}

void PowerAccumulator::close_segment(Picoseconds now, const ActivityCounters& activity,
                                     std::uint64_t noc_cycles) {
  NOCDVFS_ASSERT(now >= seg_start_ps_, "PowerAccumulator: time went backwards");
  NOCDVFS_ASSERT(noc_cycles >= seg_cycles_, "PowerAccumulator: cycle count went backwards");
  const Picoseconds dur = now - seg_start_ps_;
  const SegmentEnergy e = segment_energy(*model_, inventory_, activity.diff_since(seg_activity_),
                                         noc_cycles - seg_cycles_, scale_);
  breakdown_.datapath_j += e.datapath_j;
  breakdown_.clock_j += e.clock_j;
  breakdown_.leakage_j += e.leakage_w * common::seconds_from_ps(dur);
  breakdown_.elapsed_ps += dur;
}

void PowerAccumulator::change_operating_point(Picoseconds now, const ActivityCounters& activity,
                                              std::uint64_t noc_cycles, double vdd,
                                              common::Hertz /*f*/) {
  NOCDVFS_ASSERT(running_, "PowerAccumulator::change_operating_point while stopped");
  close_segment(now, activity, noc_cycles);
  seg_start_ps_ = now;
  seg_activity_ = activity;
  seg_cycles_ = noc_cycles;
  scale_ = model_->voltage_scale(vdd);
}

void PowerAccumulator::stop(Picoseconds now, const ActivityCounters& activity,
                            std::uint64_t noc_cycles) {
  NOCDVFS_ASSERT(running_, "PowerAccumulator::stop while stopped");
  close_segment(now, activity, noc_cycles);
  running_ = false;
}

void PowerAccumulator::reset() noexcept {
  breakdown_ = PowerBreakdown{};
  running_ = false;
}

TilePowerAccumulator::TilePowerAccumulator(const EnergyModel& model,
                                           std::vector<TileInventory> tiles)
    : model_(&model), tiles_(std::move(tiles)) {
  if (tiles_.empty()) {
    throw std::invalid_argument("TilePowerAccumulator: need at least one tile");
  }
  for (const TileInventory& t : tiles_) {
    if (t.num_routers != 1) {
      throw std::invalid_argument("TilePowerAccumulator: a tile has exactly one router");
    }
    if (t.num_links < 0 || t.num_local_links < 0) {
      throw std::invalid_argument("TilePowerAccumulator: negative link counts");
    }
  }
  const std::size_t n = tiles_.size();
  breakdowns_.resize(n);
  dynamic_w_.assign(n, 0.0);
  leakage_nominal_w_.assign(n, 0.0);
}

void TilePowerAccumulator::start(Picoseconds now, const std::vector<ActivityCounters>& activity,
                                 const std::vector<std::uint64_t>& cycles) {
  NOCDVFS_ASSERT(!running_, "TilePowerAccumulator::start while running");
  NOCDVFS_ASSERT(activity.size() == tiles_.size() && cycles.size() == tiles_.size(),
                 "TilePowerAccumulator: snapshot size mismatch");
  running_ = true;
  last_ps_ = now;
  last_activity_ = activity;
  last_cycles_ = cycles;
}

void TilePowerAccumulator::sample(Picoseconds now, const std::vector<ActivityCounters>& activity,
                                  const std::vector<std::uint64_t>& cycles,
                                  const std::vector<VoltageScale>& scale, bool accumulate) {
  NOCDVFS_ASSERT(running_, "TilePowerAccumulator::sample while stopped");
  NOCDVFS_ASSERT(now >= last_ps_, "TilePowerAccumulator: time went backwards");
  NOCDVFS_ASSERT(activity.size() == tiles_.size() && cycles.size() == tiles_.size() &&
                     scale.size() == tiles_.size(),
                 "TilePowerAccumulator: snapshot size mismatch");
  const Picoseconds dur = now - last_ps_;
  const double dur_s = common::seconds_from_ps(dur);
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const SegmentEnergy e =
        segment_energy(*model_, tiles_[i], activity[i].diff_since(last_activity_[i]),
                       cycles[i] - last_cycles_[i], scale[i]);
    dynamic_w_[i] = dur_s > 0.0 ? (e.datapath_j + e.clock_j) / dur_s : 0.0;
    leakage_nominal_w_[i] = e.leakage_w;
    if (accumulate) {
      breakdowns_[i].datapath_j += e.datapath_j;
      breakdowns_[i].clock_j += e.clock_j;
      breakdowns_[i].elapsed_ps += dur;
    }
  }
  last_ps_ = now;
  last_dur_s_ = dur_s;
  last_activity_ = activity;
  last_cycles_ = cycles;
}

void TilePowerAccumulator::sample(Picoseconds now, const std::vector<ActivityCounters>& activity,
                                  const std::vector<std::uint64_t>& cycles,
                                  const std::vector<double>& vdd, bool accumulate) {
  std::vector<VoltageScale> scale;
  scale.reserve(vdd.size());
  for (const double v : vdd) scale.push_back(model_->voltage_scale(v));
  sample(now, activity, cycles, scale, accumulate);
}

void TilePowerAccumulator::charge_nominal_leakage() {
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    breakdowns_[i].leakage_j += leakage_nominal_w_[i] * last_dur_s_;
  }
}

void TilePowerAccumulator::add_leakage_j(const std::vector<double>& leak_j) {
  NOCDVFS_ASSERT(leak_j.size() == tiles_.size(),
                 "TilePowerAccumulator: leakage vector size mismatch");
  for (std::size_t i = 0; i < tiles_.size(); ++i) breakdowns_[i].leakage_j += leak_j[i];
}

void TilePowerAccumulator::reset_energy() {
  for (PowerBreakdown& b : breakdowns_) b = PowerBreakdown{};
}

}  // namespace nocdvfs::power
