#pragma once

/// \file arrival_calendar.hpp
/// The next-arrival calendar of a set of per-node arrival processes. Each
/// node holds at most one pending arrival, kept in a binary min-heap keyed
/// by (node cycle, node id), so a node cycle in which nothing is due costs
/// one comparison and a source costs per packet, not per node cycle.
///
/// The calendar counts its own ticks: every `pop_due()` is one node cycle.
/// It never reads the kernel's cycle counter, so a model ticked by hand (a
/// test, the microbench) and a model ticked by `Simulator` see the same
/// arrivals. A source schedules its first arrival before the first tick and
/// each next one while it handles the current one:
///
///     for (NodeId node : calendar.pop_due()) {
///       ... enqueue node's packet ...
///       calendar.schedule(node, process.next_gap(rng));
///     }

#include <cstdint>
#include <vector>

#include "noc/types.hpp"

namespace nocdvfs::traffic {

/// A gap that never elapses: the process has rate 0.
inline constexpr std::uint64_t kNever = ~std::uint64_t{0};

class ArrivalCalendar {
 public:
  /// Node cycles ticked so far (the number of `pop_due` calls).
  std::uint64_t tick() const noexcept { return tick_; }

  /// Schedule `node`'s next arrival `gap` ≥ 1 node cycles after the
  /// current tick: `gap` = 1 is the next `pop_due`. `kNever` (or any gap
  /// past the end of the 64-bit cycle count) schedules nothing. A node must
  /// have at most one arrival pending.
  void schedule(noc::NodeId node, std::uint64_t gap);

  /// Advance one node cycle and return the nodes whose arrival falls in
  /// it, in ascending node id — the order a `for (node = 0; node < n; ...)`
  /// loop would enqueue them. The reference stays valid until the next
  /// call, and scheduling while iterating over it is allowed.
  const std::vector<noc::NodeId>& pop_due() {
    ++tick_;
    due_.clear();
    if (!heap_.empty() && heap_.front().cycle <= tick_) pop_due_entries();
    return due_;
  }

 private:
  struct Entry {
    std::uint64_t cycle;  ///< the tick the arrival falls in
    noc::NodeId node;
  };

  void pop_due_entries();

  std::uint64_t tick_ = 0;
  std::vector<Entry> heap_;  ///< min-heap on (cycle, node)
  std::vector<noc::NodeId> due_;
};

}  // namespace nocdvfs::traffic
