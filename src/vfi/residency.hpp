#pragma once

/// \file residency.hpp
/// Frequency-residency accounting: how long an island (or the single
/// global domain) dwelt at each VF operating point over the measurement
/// window. With discrete `vf_levels` the levels are the quantized curve
/// points; with continuous tuning every distinct actuated frequency is its
/// own level (the 1 kHz actuation dead-band keeps the set small).

#include <string>
#include <vector>

#include "common/units.hpp"

namespace nocdvfs::vfi {

struct FreqDwell {
  common::Hertz f_hz = 0.0;
  common::Picoseconds dwell_ps = 0;
};

class FreqResidency {
 public:
  /// Open the histogram at `now` with the operating frequency `f`.
  void begin(common::Picoseconds now, common::Hertz f);

  /// The operating point changed at `now`: charge the elapsed dwell to the
  /// previous frequency and continue at `f`.
  void on_change(common::Picoseconds now, common::Hertz f);

  /// Close the histogram at `now` (charges the final dwell).
  void end(common::Picoseconds now);

  bool running() const noexcept { return running_; }

  /// Levels sorted by ascending frequency.
  const std::vector<FreqDwell>& levels() const noexcept { return levels_; }


 private:
  void charge(common::Picoseconds until);

  std::vector<FreqDwell> levels_;
  bool running_ = false;
  common::Picoseconds since_ = 0;
  common::Hertz current_f_ = 0.0;
};

/// Serialized form for CSV cells: "600MHz:0.25|1000MHz:0.75" (frequencies
/// in MHz and dwell fractions of `total`, each in shortest round-trip
/// form). Empty input serializes to an empty string.
std::string residency_to_string(const std::vector<FreqDwell>& levels,
                                common::Picoseconds total);

}  // namespace nocdvfs::vfi
