#include "traffic/injection.hpp"

#include <sstream>
#include <stdexcept>

namespace nocdvfs::traffic {

namespace {

/// The one list of process names create() accepts.
struct NamedProcess {
  const char* name;
  InjectionProcess (*make)(double packet_rate);
};

constexpr NamedProcess kProcesses[] = {
    {"bernoulli", [](double rate) { return InjectionProcess::bernoulli(rate); }},
    {"onoff", [](double rate) { return InjectionProcess::onoff(rate); }},
};

}  // namespace

InjectionProcess InjectionProcess::create(const std::string& kind, double packet_rate) {
  for (const NamedProcess& p : kProcesses) {
    if (kind == p.name) return p.make(packet_rate);
  }
  std::ostringstream msg;
  msg << "InjectionProcess::create: unknown kind '" << kind << "' (valid:";
  for (const NamedProcess& p : kProcesses) msg << ' ' << p.name;
  msg << ")";
  throw std::invalid_argument(msg.str());
}

InjectionProcess InjectionProcess::bernoulli(double rate) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("InjectionProcess::bernoulli: rate must be in [0, 1]");
  }
  return InjectionProcess(Kind::Bernoulli, rate);
}

InjectionProcess InjectionProcess::onoff(double rate, double alpha, double beta) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("InjectionProcess::onoff: rate must be in [0, 1]");
  }
  if (!(alpha > 0.0) || alpha > 1.0 || !(beta > 0.0) || beta > 1.0) {
    throw std::invalid_argument("InjectionProcess::onoff: alpha/beta must be in (0, 1]");
  }
  const double duty = alpha / (alpha + beta);
  const double on_rate = rate / duty;
  if (on_rate > 1.0) {
    throw std::invalid_argument(
        "InjectionProcess::onoff: rate/duty exceeds 1 packet/cycle; increase alpha or "
        "lower rate");
  }
  InjectionProcess p(Kind::OnOff, on_rate);
  p.alpha_ = alpha;
  p.beta_ = beta;
  return p;
}

}  // namespace nocdvfs::traffic
