#pragma once

/// \file channel.hpp
/// Point-to-point channels between routers and network interfaces.
///
/// `Channel<T>` is one concrete class with no virtual functions, so a push
/// or pop inlines into the router or NI that makes it. It is a
/// power-of-two ring of (item, ready cycle) entries in FIFO order, and it
/// has no clock edge of its own: it reads its *reader's* cycle counter (the
/// island counter of the tile that pops it, bound at construction). A push
/// at reader cycle c stamps the item ready at c + delay; a pop at cycle c
/// returns the front item if it is ready, and at most one item per reader
/// cycle (every link has single-flit bandwidth). So time passes on every
/// channel of an island the moment the island's counter advances, and an
/// empty channel costs nothing at all.
///
/// The two kinds of link differ only in their constructor and in which
/// protocol invariants they check:
///
///  * `delay_line(latency, clock)` — a synchronous pipelined link inside
///    one clock domain (writer and reader share the clock). It carries at
///    most one item per cycle and delivers it exactly `latency` cycles
///    after the push, modeling a registered link (flits) or the reverse
///    credit wire. Pushing twice in one cycle, or popping a due item late
///    (the reader must take each item in the cycle it arrives — credits
///    guarantee it has room), violates an invariant.
///
///  * `cdc_fifo(ready_delay, capacity, clock)` — a clock-domain-crossing
///    link on an island-boundary edge (see src/vfi/). The writer pushes in
///    its own clock domain at any rate the credit loop allows; each item
///    becomes poppable `ready_delay` reader cycles after its push — the
///    brute-force synchronizer penalty plus the link pipeline — and may
///    wait longer behind earlier items. Occupancy is bounded by the credit
///    loop (`capacity`) and enforced with an invariant check.
///
/// Pending-input masks. The reader that wires a channel as one of its
/// inputs hands it a bit in a mask word it owns (`set_reader_bit`). A push
/// sets that bit; the pop that empties the channel clears it. So a reader
/// polls only the inputs whose bit is set, and "every input is empty" is
/// one compare. A push across an island boundary writes the reader
/// island's mask from the writer's island, exactly as `Network::wake` does.
/// Several writers share one reader mask, and the parallel island step
/// (network.hpp) runs them on different threads, so while a thread runs
/// a parallel step (`t_parallel_step`) its bit updates are atomic
/// read-modify-writes; a serial step keeps the plain ones, which cost a
/// fraction of a locked instruction. Everything else in a channel has one
/// writer and one reader, which run in different regions of a step.

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/assert.hpp"
#include "noc/types.hpp"

namespace nocdvfs::noc {

/// True on a thread while it runs the regions of a parallel island step.
inline thread_local bool t_parallel_step = false;

template <typename T>
class Channel {
 public:
  /// Same-clock link: one push per cycle, each item due exactly `latency`
  /// reader cycles later. `reader_clock` must outlive the channel.
  static Channel delay_line(int latency, const std::uint64_t* reader_clock) {
    if (latency < 1) throw std::invalid_argument("DelayLine: latency must be >= 1");
    // A due item is popped in its arrival cycle, so at most latency + 1
    // items are in flight (a push may precede the pop within one cycle).
    return Channel(latency, latency + 1, true, reader_clock);
  }

  /// Clock-domain crossing: any number of pushes per reader cycle, each
  /// item poppable `ready_delay` reader cycles after its push; `capacity`
  /// is the occupancy the credit loop guarantees (a violation is an
  /// invariant failure, not backpressure).
  static Channel cdc_fifo(int ready_delay, int capacity, const std::uint64_t* reader_clock) {
    if (ready_delay < 1) throw std::invalid_argument("CdcFifo: ready_delay must be >= 1");
    if (capacity < 1) throw std::invalid_argument("CdcFifo: capacity must be >= 1");
    return Channel(ready_delay, capacity, false, reader_clock);
  }

  /// Moving keeps the ring: an inline one is copied and re-pointed.
  Channel(Channel&& o) noexcept
      : heap_ring_(std::move(o.heap_ring_)),
        clock_(o.clock_),
        pending_mask_(o.pending_mask_),
        pending_bit_(o.pending_bit_),
        delay_(o.delay_),
        last_push_(o.last_push_),
        last_pop_(o.last_pop_),
        capacity_(o.capacity_),
        ring_mask_(o.ring_mask_),
        head_(o.head_),
        count_(o.count_),
        same_clock_(o.same_clock_) {
    if (heap_ring_) {
      ring_ = heap_ring_.get();
    } else {
      for (std::size_t i = 0; i < kInlineSlots; ++i) inline_ring_[i] = std::move(o.inline_ring_[i]);
    }
    o.ring_ = o.inline_ring_;
    o.count_ = 0;
  }
  Channel& operator=(Channel&&) = delete;

  void push(T item) {
    const std::uint64_t now = *clock_;
    if (same_clock_) {
      NOCDVFS_ASSERT(last_push_ != now, "DelayLine: two pushes in one cycle");
      last_push_ = now;
    }
    NOCDVFS_ASSERT(count_ < capacity_, "Channel: occupancy exceeds its bound");
    Entry& e = ring_[(head_ + count_) & ring_mask_];
    e.item = std::move(item);
    e.ready = now + delay_;
    ++count_;
    if (pending_mask_ == nullptr) return;
    if (t_parallel_step) {
      std::atomic_ref<std::uint64_t>(*pending_mask_).fetch_or(pending_bit_,
                                                              std::memory_order_relaxed);
    } else {
      *pending_mask_ |= pending_bit_;
    }
  }

  std::optional<T> pop() {
    if (count_ == 0) return std::nullopt;
    const std::uint64_t now = *clock_;
    Entry& e = ring_[head_];
    if (e.ready > now || last_pop_ == now) return std::nullopt;
    NOCDVFS_ASSERT(!same_clock_ || e.ready == now, "DelayLine: a due item was not popped");
    last_pop_ = now;
    head_ = (head_ + 1) & ring_mask_;
    if (--count_ == 0 && pending_mask_ != nullptr) {
      if (t_parallel_step) {
        std::atomic_ref<std::uint64_t>(*pending_mask_).fetch_and(~pending_bit_,
                                                                 std::memory_order_relaxed);
      } else {
        *pending_mask_ &= ~pending_bit_;
      }
    }
    return std::optional<T>(std::move(e.item));
  }

  /// Items pushed and not yet popped.
  std::size_t in_flight() const noexcept { return count_; }

  /// Bind the reader's pending-input bit: `*mask` bit `bit` is set while
  /// this channel holds an item. Called by the reader when it is wired; a
  /// channel no reader is wired to (tests drive some by hand) raises none.
  void set_reader_bit(std::uint64_t* mask, int bit) noexcept {
    pending_mask_ = mask;
    pending_bit_ = std::uint64_t{1} << bit;
  }

 private:
  struct Entry {
    T item{};
    std::uint64_t ready = 0;  ///< reader cycle from which the item may be popped
  };

  /// "Never": the initial value of the last-push/last-pop clock stamps.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  Channel(int delay, int capacity, bool same_clock, const std::uint64_t* reader_clock)
      : clock_(reader_clock),
        delay_(static_cast<std::uint64_t>(delay)),
        capacity_(static_cast<std::uint32_t>(capacity)),
        same_clock_(same_clock) {
    if (reader_clock == nullptr) throw std::invalid_argument("Channel: null reader clock");
    const std::size_t slots = std::bit_ceil(static_cast<std::size_t>(capacity));
    if (slots > kInlineSlots) {
      heap_ring_ = std::make_unique<Entry[]>(slots);
      ring_ = heap_ring_.get();
    }
    ring_mask_ = static_cast<std::uint32_t>(slots - 1);
  }

  /// Rings of up to two slots (every latency-1 link) live inside the
  /// channel: a network has one per link direction, and a separate
  /// allocation each was a third of a network's construction allocations.
  static constexpr std::size_t kInlineSlots = 2;
  Entry inline_ring_[kInlineSlots];
  std::unique_ptr<Entry[]> heap_ring_;  ///< larger rings (CDC fifos, long links)
  Entry* ring_ = inline_ring_;
  const std::uint64_t* clock_;
  std::uint64_t* pending_mask_ = nullptr;
  std::uint64_t pending_bit_ = 0;
  std::uint64_t delay_;
  std::uint64_t last_push_ = kNever;  ///< reader cycle of the last push (same-clock only)
  std::uint64_t last_pop_ = kNever;   ///< reader cycle of the last pop
  std::uint32_t capacity_;
  std::uint32_t ring_mask_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  bool same_clock_;
};

using FlitChannel = Channel<Flit>;
using CreditChannel = Channel<Credit>;

}  // namespace nocdvfs::noc
