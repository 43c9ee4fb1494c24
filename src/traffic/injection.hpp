#pragma once

/// \file injection.hpp
/// Packet-arrival processes in the node clock domain. `fire()` is sampled
/// once per node cycle; a true return generates one packet. Rates are in
/// packets per node cycle (the flit rate divided by the packet size, as in
/// BookSim's packet-based injection).

#include <memory>
#include <string>

#include "common/rng.hpp"

namespace nocdvfs::traffic {

class InjectionProcess {
 public:
  virtual ~InjectionProcess() = default;

  virtual bool fire(common::Rng& rng) = 0;
  virtual double packet_rate() const noexcept = 0;  ///< mean packets/cycle
  virtual void reset() {}

  /// Factory: "bernoulli" or "onoff". Throws std::invalid_argument on an
  /// unknown kind (naming the valid set) or a rate outside [0, 1].
  static std::unique_ptr<InjectionProcess> create(const std::string& kind, double packet_rate);
};

/// Memoryless arrivals: fire with probability `rate` each cycle.
class BernoulliInjection final : public InjectionProcess {
 public:
  explicit BernoulliInjection(double rate);
  bool fire(common::Rng& rng) override;
  double packet_rate() const noexcept override { return rate_; }

 private:
  double rate_;
};

/// Two-state Markov-modulated process (bursty traffic). In the ON state
/// packets fire with probability `on_rate`; OFF emits nothing. Transition
/// probabilities alpha (OFF->ON) and beta (ON->OFF) set the duty cycle
/// d = alpha/(alpha+beta); on_rate = rate/d keeps the long-run mean at
/// `rate`. Defaults give mean burst length 1/beta = 20 cycles.
class OnOffInjection final : public InjectionProcess {
 public:
  OnOffInjection(double rate, double alpha = 0.0125, double beta = 0.05);
  bool fire(common::Rng& rng) override;
  double packet_rate() const noexcept override { return rate_; }
  void reset() override { on_ = false; }

 private:
  double rate_;
  double alpha_;
  double beta_;
  double on_rate_;
  bool on_ = false;
};

}  // namespace nocdvfs::traffic
