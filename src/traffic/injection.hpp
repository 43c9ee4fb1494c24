#pragma once

/// \file injection.hpp
/// Packet-arrival processes in the node clock domain. A process is a
/// discrete-time process — at most one packet per node cycle — but it is
/// sampled per packet: `next_gap()` draws the number of node cycles to the
/// next arrival, and an `ArrivalCalendar` holds it until it falls due.
/// Rates are in packets per node cycle (the flit rate divided by the packet
/// size, as in BookSim's packet-based injection).
///
///  * Bernoulli — memoryless arrivals with probability `rate` each cycle.
///    The gap between arrivals is geometric: floor(log(u)/log1p(-rate)) + 1
///    with u uniform in (0, 1].
///  * OnOff — a two-state Markov-modulated process (bursty traffic). It
///    starts OFF; each cycle it first switches state (OFF->ON with alpha,
///    ON->OFF with beta), then an ON cycle emits with probability
///    `on_rate`. The duty cycle d = alpha/(alpha+beta) and on_rate =
///    rate/d keep the long-run mean at `rate`. Defaults give mean burst
///    length 1/beta = 20 cycles. Sampled as geometric OFF and ON sojourns
///    with geometric gaps inside an ON sojourn, so one `next_gap` costs one
///    draw per sojourn it crosses.
///
/// The draws differ from a cycle-by-cycle sampler of the same process (one
/// draw per node per cycle); the process, and so every statistic of it, is
/// the same.

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "traffic/arrival_calendar.hpp"

namespace nocdvfs::traffic {

class InjectionProcess {
 public:
  enum class Kind : std::uint8_t { Bernoulli, OnOff };

  /// Factory: "bernoulli" or "onoff". Throws std::invalid_argument on an
  /// unknown kind (naming the valid set) or a rate outside [0, 1].
  static InjectionProcess create(const std::string& kind, double packet_rate);
  /// Throws std::invalid_argument on a rate outside [0, 1].
  static InjectionProcess bernoulli(double rate);
  /// Throws std::invalid_argument on a rate outside [0, 1], alpha/beta
  /// outside (0, 1], or a duty cycle that would need on_rate > 1.
  static InjectionProcess onoff(double rate, double alpha = 0.0125, double beta = 0.05);

  /// Node cycles from the current cycle to the next arrival: 1 is the next
  /// cycle. `kNever` for a process that never fires (rate 0).
  std::uint64_t next_gap(common::Rng& rng) noexcept;

  Kind kind() const noexcept { return kind_; }

 private:
  InjectionProcess(Kind kind, double p) noexcept : kind_(kind), p_(p) {}

  Kind kind_;
  bool on_ = false;            ///< OnOff: ON at the current cycle (else OFF)
  std::uint64_t on_left_ = 0;  ///< OnOff, when ON: ON cycles left after the current one
  double p_;                   ///< emission probability: Bernoulli `rate`, OnOff `on_rate`
  double alpha_ = 0.0;         ///< OnOff: P(OFF -> ON) per cycle
  double beta_ = 0.0;          ///< OnOff: P(ON -> OFF) per cycle
};

}  // namespace nocdvfs::traffic
