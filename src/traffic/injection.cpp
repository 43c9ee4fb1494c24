#include "traffic/injection.hpp"

#include <sstream>
#include <stdexcept>

namespace nocdvfs::traffic {

namespace {

/// The one list of process names create() accepts.
struct NamedProcess {
  const char* name;
  std::unique_ptr<InjectionProcess> (*make)(double packet_rate);
};

template <class P>
std::unique_ptr<InjectionProcess> make_at(double packet_rate) {
  return std::make_unique<P>(packet_rate);
}

constexpr NamedProcess kProcesses[] = {
    {"bernoulli", make_at<BernoulliInjection>},
    {"onoff", make_at<OnOffInjection>},
};

}  // namespace

std::unique_ptr<InjectionProcess> InjectionProcess::create(const std::string& kind,
                                                           double packet_rate) {
  for (const NamedProcess& p : kProcesses) {
    if (kind == p.name) return p.make(packet_rate);
  }
  std::ostringstream msg;
  msg << "InjectionProcess::create: unknown kind '" << kind << "' (valid:";
  for (const NamedProcess& p : kProcesses) msg << ' ' << p.name;
  msg << ")";
  throw std::invalid_argument(msg.str());
}

BernoulliInjection::BernoulliInjection(double rate) : rate_(rate) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("BernoulliInjection: rate must be in [0, 1]");
  }
}

bool BernoulliInjection::fire(common::Rng& rng) { return rng.bernoulli(rate_); }

OnOffInjection::OnOffInjection(double rate, double alpha, double beta)
    : rate_(rate), alpha_(alpha), beta_(beta) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("OnOffInjection: rate must be in [0, 1]");
  }
  if (!(alpha > 0.0) || alpha > 1.0 || !(beta > 0.0) || beta > 1.0) {
    throw std::invalid_argument("OnOffInjection: alpha/beta must be in (0, 1]");
  }
  const double duty = alpha / (alpha + beta);
  on_rate_ = rate / duty;
  if (on_rate_ > 1.0) {
    throw std::invalid_argument(
        "OnOffInjection: rate/duty exceeds 1 packet/cycle; increase alpha or lower rate");
  }
}

bool OnOffInjection::fire(common::Rng& rng) {
  // State transition first, then emission — a standard discrete MMPP.
  if (on_) {
    if (rng.bernoulli(beta_)) on_ = false;
  } else {
    if (rng.bernoulli(alpha_)) on_ = true;
  }
  return on_ && rng.bernoulli(on_rate_);
}

}  // namespace nocdvfs::traffic
