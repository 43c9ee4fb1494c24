#pragma once

/// \file clock.hpp
/// Clock domains on a single integer-picosecond timeline.
///
/// `MultiClock` generalizes the paper's dual-clock kernel to voltage–
/// frequency islands: one fixed node domain (traffic generation, control
/// updates) plus N independently retunable NoC domains, one per island.
/// `advance()` jumps to the next clock edge — possibly several domains at
/// the same instant — and reports which domains fired; coincident edges
/// are reported together and the caller processes node-domain work before
/// any NoC cycle at that instant, then the fired NoC domains in ascending
/// island order.
///
/// A frequency change leaves the already-scheduled edge of that domain in
/// place and applies the new period from the following edge — a glitch-free
/// clock switch per domain; the PLL relock time is assumed hidden, as in
/// the paper. Retuning one domain never perturbs the edge schedule of any
/// other domain. The paper's original node + NoC clock pair is simply a
/// one-domain `MultiClock`.

#include <vector>

#include "common/units.hpp"

namespace nocdvfs::sim {

class MultiClock {
 public:
  /// One retunable NoC domain per entry of `f_noc` (at least one).
  MultiClock(common::Hertz f_node, const std::vector<common::Hertz>& f_noc);

  struct Edge {
    bool node = false;     ///< the node domain fired at this instant
    bool noc_any = false;  ///< at least one NoC domain fired
  };

  /// Advance to the next edge instant. The NoC domains that fired are
  /// listed (ascending) by `fired()` until the next advance().
  Edge advance();

  /// NoC domains that fired at the last advance(), ascending.
  const std::vector<int>& fired() const noexcept { return fired_; }

  common::Picoseconds now() const noexcept { return now_; }
  std::uint64_t node_cycles() const noexcept { return node_cycles_; }
  common::Hertz node_frequency() const noexcept { return f_node_; }

  int num_noc_domains() const noexcept { return static_cast<int>(domains_.size()); }
  std::uint64_t noc_cycles(int domain) const { return dom(domain).cycles; }
  common::Hertz noc_frequency(int domain) const { return dom(domain).f; }
  common::Picoseconds noc_period_ps(int domain) const { return dom(domain).period; }

  /// Retune one NoC domain; takes effect after that domain's pending edge.
  void set_noc_frequency(int domain, common::Hertz f);

 private:
  struct Domain {
    common::Hertz f = 0.0;
    common::Picoseconds period = 0;
    common::Picoseconds next = 0;
    std::uint64_t cycles = 0;
  };

  const Domain& dom(int domain) const { return domains_.at(static_cast<std::size_t>(domain)); }

  common::Hertz f_node_;
  common::Picoseconds node_period_;
  std::vector<Domain> domains_;
  common::Picoseconds now_ = 0;
  common::Picoseconds next_node_ = 0;
  std::uint64_t node_cycles_ = 0;
  std::vector<int> fired_;
};

}  // namespace nocdvfs::sim
