#include "traffic/arrival_calendar.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace nocdvfs::traffic {

namespace {

/// Heap order for std::push_heap/pop_heap: the earliest (cycle, node) on top.
struct Later {
  template <class E>
  bool operator()(const E& a, const E& b) const noexcept {
    return a.cycle != b.cycle ? a.cycle > b.cycle : a.node > b.node;
  }
};

}  // namespace

void ArrivalCalendar::schedule(noc::NodeId node, std::uint64_t gap) {
  NOCDVFS_ASSERT(gap >= 1, "an arrival gap is at least one node cycle");
  if (gap >= kNever - tick_) return;  // never, or past the end of the cycle count
  heap_.push_back(Entry{tick_ + gap, node});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void ArrivalCalendar::pop_due_entries() {
  while (!heap_.empty() && heap_.front().cycle <= tick_) {
    NOCDVFS_ASSERT(heap_.front().cycle == tick_, "an arrival was left behind in the calendar");
    due_.push_back(heap_.front().node);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

}  // namespace nocdvfs::traffic
