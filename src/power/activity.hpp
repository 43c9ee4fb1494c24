#pragma once

/// \file activity.hpp
/// Switching-activity counters, the interface between the cycle-accurate
/// simulator and the power model — the stand-in for the activity (SAIF-like)
/// data the paper exports from BookSim into Synopsys power estimation.

#include <cstdint>

namespace nocdvfs::power {

/// Event counts accumulated by one router (plus its outgoing links) since
/// construction or the last snapshot diff. Plain aggregate so snapshots are
/// cheap copies.
struct ActivityCounters {
  std::uint64_t buffer_writes = 0;     ///< flit written into an input VC FIFO
  std::uint64_t buffer_reads = 0;      ///< flit dequeued at switch traversal
  std::uint64_t crossbar_traversals = 0;
  std::uint64_t vc_alloc_grants = 0;
  std::uint64_t sw_alloc_grants = 0;
  std::uint64_t alloc_requests = 0;    ///< arbiter input activity (VA+SA)
  std::uint64_t link_flit_hops = 0;    ///< flits launched onto inter-router links
  std::uint64_t local_flit_hops = 0;   ///< flits on injection/ejection channels

  ActivityCounters& operator+=(const ActivityCounters& o) noexcept {
    buffer_writes += o.buffer_writes;
    buffer_reads += o.buffer_reads;
    crossbar_traversals += o.crossbar_traversals;
    vc_alloc_grants += o.vc_alloc_grants;
    sw_alloc_grants += o.sw_alloc_grants;
    alloc_requests += o.alloc_requests;
    link_flit_hops += o.link_flit_hops;
    local_flit_hops += o.local_flit_hops;
    return *this;
  }

  bool operator==(const ActivityCounters&) const = default;

  friend ActivityCounters operator+(ActivityCounters a, const ActivityCounters& b) noexcept {
    a += b;
    return a;
  }

  /// Component-wise difference (this - earlier); saturates at 0 would mask
  /// bugs, so underflow is the caller's responsibility (counters only grow).
  ActivityCounters diff_since(const ActivityCounters& earlier) const noexcept {
    ActivityCounters d;
    d.buffer_writes = buffer_writes - earlier.buffer_writes;
    d.buffer_reads = buffer_reads - earlier.buffer_reads;
    d.crossbar_traversals = crossbar_traversals - earlier.crossbar_traversals;
    d.vc_alloc_grants = vc_alloc_grants - earlier.vc_alloc_grants;
    d.sw_alloc_grants = sw_alloc_grants - earlier.sw_alloc_grants;
    d.alloc_requests = alloc_requests - earlier.alloc_requests;
    d.link_flit_hops = link_flit_hops - earlier.link_flit_hops;
    d.local_flit_hops = local_flit_hops - earlier.local_flit_hops;
    return d;
  }

  std::uint64_t total_events() const noexcept {
    return buffer_writes + buffer_reads + crossbar_traversals + vc_alloc_grants +
           sw_alloc_grants + alloc_requests + link_flit_hops + local_flit_hops;
  }
};

}  // namespace nocdvfs::power
