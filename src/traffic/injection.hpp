#pragma once

/// \file injection.hpp
/// Packet-arrival processes in the node clock domain. `fire()` is sampled
/// once per node cycle; a true return generates one packet. Rates are in
/// packets per node cycle (the flit rate divided by the packet size, as in
/// BookSim's packet-based injection).
///
/// One concrete value type covers every process, so a traffic source holds
/// it by value and `fire()` inlines into the per-node loop:
///
///  * Bernoulli — memoryless arrivals: fire with probability `rate` each
///    cycle.
///  * OnOff — a two-state Markov-modulated process (bursty traffic). In the
///    ON state packets fire with probability `on_rate`; OFF emits nothing.
///    Transition probabilities alpha (OFF->ON) and beta (ON->OFF) set the
///    duty cycle d = alpha/(alpha+beta); on_rate = rate/d keeps the
///    long-run mean at `rate`. Defaults give mean burst length 1/beta = 20
///    cycles.

#include <cstdint>
#include <string>

#include "common/rng.hpp"

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

  bool fire(common::Rng& rng) noexcept {
    if (kind_ == Kind::Bernoulli) return rng.bernoulli(p_);
    // State transition first, then emission — a standard discrete MMPP.
    if (on_) {
      if (rng.bernoulli(beta_)) on_ = false;
    } else {
      if (rng.bernoulli(alpha_)) on_ = true;
    }
    return on_ && rng.bernoulli(p_);
  }

  Kind kind() const noexcept { return kind_; }

 private:
  InjectionProcess(Kind kind, double p) noexcept : kind_(kind), p_(p) {}

  Kind kind_;
  bool on_ = false;     ///< OnOff state
  double p_;            ///< emission probability: Bernoulli `rate`, OnOff `on_rate`
  double alpha_ = 0.0;  ///< OnOff: P(OFF -> ON) per cycle
  double beta_ = 0.0;   ///< OnOff: P(ON -> OFF) per cycle
};

}  // namespace nocdvfs::traffic
