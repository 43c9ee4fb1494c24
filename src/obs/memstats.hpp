#pragma once

/// \file memstats.hpp
/// Host memory accounting: process peak-RSS sampling plus a byte/object
/// breakdown of the big in-simulator owners (router buffers, flits in
/// flight, telemetry timelines, histogram pools, trace buffers).
///
/// Everything here is *host-side only* and computed on demand — there are
/// no hot-path counters, so `mem=off` and `mem=on` runs are bit-identical
/// in simulated metrics, and `mem=off` costs nothing. The breakdown gives
/// the planned arena/SoA storage PRs a before/after surface: the owners
/// named here are exactly the allocations those PRs will restructure.

#include <cstdint>
#include <string>
#include <vector>

namespace nocdvfs::obs {

/// Process memory snapshot. On Linux this reads /proc/self/status
/// (VmHWM = peak resident set, VmRSS = current); elsewhere both are 0
/// and callers should treat 0 as "unavailable".
struct MemSample {
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t current_rss_bytes = 0;
};

MemSample sample_process_memory();

/// One named allocation owner in a breakdown.
struct MemOwner {
  std::string name;            ///< e.g. "flits_in_flight", "timeline"
  std::uint64_t objects = 0;   ///< live object count (0 when not meaningful)
  std::uint64_t bytes = 0;     ///< bytes attributed to the owner
};

/// A point-in-time byte/object breakdown, built by the simulator at the
/// end of a `mem=on` run and serialized into the run manifest as
/// `mem.<owner>.bytes` / `mem.<owner>.objects` entries.
struct MemBreakdown {
  std::vector<MemOwner> owners;

  void add(std::string name, std::uint64_t objects, std::uint64_t bytes) {
    owners.push_back(MemOwner{std::move(name), objects, bytes});
  }
  std::uint64_t total_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const MemOwner& o : owners) total += o.bytes;
    return total;
  }
};

}  // namespace nocdvfs::obs
