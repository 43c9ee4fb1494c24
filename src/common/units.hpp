#pragma once

/// \file units.hpp
/// Physical-unit helpers shared across the simulator.
///
/// The simulation kernel keeps a single master timeline in integer
/// picoseconds (`Picoseconds`); clock domains derive their periods from a
/// frequency in Hz. Integer time avoids the drift a floating-point timeline
/// would accumulate over hundreds of thousands of cycles.

#include <cstdint>

#include "common/assert.hpp"

namespace nocdvfs::common {

/// Master simulation time unit. 64 bits of picoseconds covers ~213 days.
using Picoseconds = std::uint64_t;

/// Frequencies are carried in Hz as doubles (continuous DVFS tuning).
using Hertz = double;

inline constexpr double kPicosPerSecond = 1e12;

/// Celsius ↔ kelvin offset, shared by the power and thermal planes.
inline constexpr double kCelsiusToKelvinOffset = 273.15;

/// Convert a frequency to the nearest integer clock period in picoseconds.
/// Throws std::invalid_argument for non-positive or absurdly low frequencies
/// (below 1 MHz the rounded period would exceed 10^6 ps — outside any DVFS
/// range this project models).
inline Picoseconds period_ps_from_hz(Hertz f) {
  if (!(f > 0.0)) throw std::invalid_argument("frequency must be positive");
  const double period = kPicosPerSecond / f;
  if (period > 1e6) throw std::invalid_argument("frequency below 1 MHz is not supported");
  const auto rounded = static_cast<Picoseconds>(period + 0.5);
  NOCDVFS_ASSERT(rounded >= 1, "clock period rounded to zero");
  return rounded;
}

inline constexpr double ns_from_ps(Picoseconds ps) { return static_cast<double>(ps) * 1e-3; }
inline constexpr double us_from_ps(Picoseconds ps) { return static_cast<double>(ps) * 1e-6; }
inline constexpr double seconds_from_ps(Picoseconds ps) {
  return static_cast<double>(ps) / kPicosPerSecond;
}

}  // namespace nocdvfs::common
