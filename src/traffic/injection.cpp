#include "traffic/injection.hpp"

#include <cmath>
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

/// Trials up to and including the first success, each with probability
/// p ∈ (0, 1]: floor(log(u)/log1p(-p)) + 1 with u = 1 - uniform01() in
/// (0, 1]. A count past 2^62 is `kNever`.
std::uint64_t geometric(common::Rng& rng, double p) noexcept {
  if (p >= 1.0) return 1;
  const double u = 1.0 - rng.uniform01();
  const double failures = std::floor(std::log(u) / std::log1p(-p));
  return failures < 0x1p62 ? static_cast<std::uint64_t>(failures) + 1 : kNever;
}

}  // namespace

std::uint64_t InjectionProcess::next_gap(common::Rng& rng) noexcept {
  if (!(p_ > 0.0)) return kNever;
  if (kind_ == Kind::Bernoulli) return geometric(rng, p_);
  // OnOff. `gap` is the cycle under consideration, relative to the current
  // one. Each pass crosses one OFF sojourn (if OFF) and one ON sojourn.
  std::uint64_t gap = 0;
  while (true) {
    if (!on_) {
      // OFF at `gap`: the next ON cycle is Geom(alpha) cycles later, and
      // the ON sojourn lasts Geom(beta) cycles counting that one.
      const std::uint64_t off = geometric(rng, alpha_);
      if (off == kNever) return kNever;
      gap += off - 1;
      on_left_ = geometric(rng, beta_);  // ON cycles gap+1 .. gap+on_left_
      on_ = true;
    }
    const std::uint64_t k = geometric(rng, p_);
    if (k <= on_left_) {
      on_left_ -= k;
      return gap + k;
    }
    if (k == kNever) return kNever;
    gap += on_left_ + 1;  // the sojourn ends empty; this cycle is OFF
    on_ = false;
  }
}

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
