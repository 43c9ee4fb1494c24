#include "sim/clock.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace nocdvfs::sim {

using common::Picoseconds;

MultiClock::MultiClock(common::Hertz f_node, const std::vector<common::Hertz>& f_noc)
    : f_node_(f_node), node_period_(common::period_ps_from_hz(f_node)) {
  if (f_noc.empty()) throw std::invalid_argument("MultiClock: at least one NoC domain");
  domains_.reserve(f_noc.size());
  for (const common::Hertz f : f_noc) {
    Domain d;
    d.f = f;
    d.period = common::period_ps_from_hz(f);
    d.next = d.period;
    domains_.push_back(d);
  }
  next_node_ = node_period_;
  fired_.reserve(domains_.size());
}

MultiClock::Edge MultiClock::advance() {
  Picoseconds t = next_node_;
  for (const Domain& d : domains_) {
    if (d.next < t) t = d.next;
  }
  NOCDVFS_ASSERT(t > now_, "clock failed to advance");
  now_ = t;
  fired_.clear();
  Edge edge;
  if (next_node_ == t) {
    edge.node = true;
    ++node_cycles_;
    next_node_ += node_period_;
  }
  for (int i = 0; i < static_cast<int>(domains_.size()); ++i) {
    Domain& d = domains_[static_cast<std::size_t>(i)];
    if (d.next == t) {
      edge.noc_any = true;
      ++d.cycles;
      d.next += d.period;
      fired_.push_back(i);
    }
  }
  return edge;
}

void MultiClock::set_noc_frequency(int domain, common::Hertz f) {
  // The pending edge keeps its instant (the cycle in flight completes at
  // the old rate); subsequent cycles use the new period. Other domains'
  // schedules are untouched.
  Domain& d = domains_.at(static_cast<std::size_t>(domain));
  d.period = common::period_ps_from_hz(f);
  d.f = f;
}

}  // namespace nocdvfs::sim
