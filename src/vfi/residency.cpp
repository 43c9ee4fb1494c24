#include "vfi/residency.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace nocdvfs::vfi {

void FreqResidency::begin(common::Picoseconds now, common::Hertz f) {
  NOCDVFS_ASSERT(!running_, "FreqResidency::begin while running");
  running_ = true;
  since_ = now;
  current_f_ = f;
}

void FreqResidency::charge(common::Picoseconds until) {
  NOCDVFS_ASSERT(until >= since_, "FreqResidency: time went backwards");
  const common::Picoseconds dwell = until - since_;
  if (dwell == 0) return;
  // Group at 1 MHz resolution: quantized VF levels sit ~100 MHz apart so
  // they stay distinct, while a continuous PI controller's jitter around
  // its operating point collapses into one level instead of producing one
  // entry per actuation.
  for (FreqDwell& level : levels_) {
    if (std::abs(level.f_hz - current_f_) <= 1e6) {
      level.dwell_ps += dwell;
      return;
    }
  }
  levels_.push_back({current_f_, dwell});
  std::sort(levels_.begin(), levels_.end(),
            [](const FreqDwell& a, const FreqDwell& b) { return a.f_hz < b.f_hz; });
}

void FreqResidency::on_change(common::Picoseconds now, common::Hertz f) {
  NOCDVFS_ASSERT(running_, "FreqResidency::on_change while stopped");
  charge(now);
  since_ = now;
  current_f_ = f;
}

void FreqResidency::end(common::Picoseconds now) {
  NOCDVFS_ASSERT(running_, "FreqResidency::end while stopped");
  charge(now);
  running_ = false;
}

std::string residency_to_string(const std::vector<FreqDwell>& levels,
                                common::Picoseconds total) {
  std::string out;
  for (const FreqDwell& level : levels) {
    const double frac =
        total > 0 ? static_cast<double>(level.dwell_ps) / static_cast<double>(total) : 0.0;
    if (!out.empty()) out += '|';
    out += common::format_double(level.f_hz * 1e-6) + "MHz:" + common::format_double(frac);
  }
  return out;
}

}  // namespace nocdvfs::vfi
