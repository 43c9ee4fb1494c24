#pragma once

/// \file channel.hpp
/// Point-to-point channels between routers and network interfaces.
///
/// `Channel<T>` is the port-facing interface (push / pop / in_flight);
/// routers and NIs hold `Channel<T>*` so a link can be either of two
/// concrete kinds. Neither kind has a clock edge of its own: each reads
/// its *reader's* cycle counter (the island counter of the tile that pops
/// it, bound at construction), so time passes on every channel of an
/// island the moment the island's counter advances, and an empty channel
/// costs nothing at all.
///
///  * `DelayLine<T>` — a synchronous pipelined link inside one clock
///    domain. It carries at most one item per cycle and delivers it
///    `latency` cycles after it was pushed, modeling a registered link
///    (flits) or the reverse credit wire. Slots are indexed by the reader
///    clock: a push at cycle c lands in slot c + latency, a pop at cycle c
///    takes slot c. Pushing twice in a cycle, or failing to pop a due flit
///    (credits guarantee buffer space), violates an invariant.
///
///  * `CdcFifo<T>` — a clock-domain-crossing link on an island-boundary
///    edge (see src/vfi/). The writer pushes in its own clock domain at
///    any rate the credit loop allows; each push is stamped with the
///    *reader's* clock and the item becomes poppable `ready_delay` reader
///    cycles later — the brute-force synchronizer penalty plus the link
///    pipeline. At most one item is delivered per reader cycle (the link
///    still has single-flit bandwidth); occupancy is bounded by the credit
///    loop and enforced with an invariant check.
///
/// Pending-input masks. The reader that wires a channel as one of its
/// inputs hands it a bit in a mask word it owns (`set_reader_bit`). A push
/// sets that bit; the pop that empties the channel clears it. So a reader
/// polls only the inputs whose bit is set, and "every input is empty" is
/// one compare. A push across an island boundary writes the reader
/// island's mask from the writer's island, exactly as `Network::wake` does.

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/assert.hpp"
#include "noc/types.hpp"

namespace nocdvfs::noc {

template <typename T>
class Channel {
 public:
  virtual ~Channel() = default;

  virtual void push(T item) = 0;
  virtual std::optional<T> pop() = 0;
  virtual std::size_t in_flight() const noexcept = 0;

  /// Bind the reader's pending-input bit: `*mask` bit `bit` is set while
  /// this channel holds an item. Called by the reader when it is wired; a
  /// channel no reader is wired to (tests drive some by hand) raises none.
  void set_reader_bit(std::uint64_t* mask, int bit) noexcept {
    pending_mask_ = mask;
    pending_bit_ = std::uint64_t{1} << bit;
  }

 protected:
  /// `reader_clock` — the cycle counter of the domain that pops this
  /// channel; it must outlive the channel.
  explicit Channel(const std::uint64_t* reader_clock) : clock_(reader_clock) {
    if (reader_clock == nullptr) throw std::invalid_argument("Channel: null reader clock");
  }

  std::uint64_t now() const noexcept { return *clock_; }
  void mark_pending() noexcept {
    if (pending_mask_ != nullptr) *pending_mask_ |= pending_bit_;
  }
  void clear_pending() noexcept {
    if (pending_mask_ != nullptr) *pending_mask_ &= ~pending_bit_;
  }

  /// "Never": the initial value of the last-push/last-pop clock stamps.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

 private:
  const std::uint64_t* clock_;
  std::uint64_t* pending_mask_ = nullptr;
  std::uint64_t pending_bit_ = 0;
};

template <typename T>
class DelayLine final : public Channel<T> {
 public:
  DelayLine(int latency, const std::uint64_t* reader_clock)
      : Channel<T>(reader_clock), latency_(latency) {
    if (latency < 1) throw std::invalid_argument("DelayLine: latency must be >= 1");
    // latency + 1 slots suffice; a power of two makes the index a mask.
    const std::size_t slots = std::bit_ceil(static_cast<std::size_t>(latency) + 1);
    slots_ = std::make_unique<std::optional<T>[]>(slots);
    slot_mask_ = slots - 1;
  }

  void push(T item) override {
    const std::uint64_t now = this->now();
    NOCDVFS_ASSERT(last_push_ != now, "DelayLine: two pushes in one cycle");
    std::optional<T>& slot =
        slots_[(now + static_cast<std::uint64_t>(latency_)) & slot_mask_];
    NOCDVFS_ASSERT(!slot.has_value(), "DelayLine: overwriting undelivered item");
    slot = std::move(item);
    last_push_ = now;
    ++occupancy_;
    this->mark_pending();
  }

  std::optional<T> pop() noexcept override {
    std::optional<T> out;
    slots_[this->now() & slot_mask_].swap(out);
    if (out.has_value() && --occupancy_ == 0) this->clear_pending();
    return out;
  }

  /// O(1): maintained at push/pop, not a slot scan.
  std::size_t in_flight() const noexcept override { return occupancy_; }

 private:
  std::unique_ptr<std::optional<T>[]> slots_;
  std::uint64_t slot_mask_ = 0;
  int latency_;
  std::uint32_t occupancy_ = 0;
  std::uint64_t last_push_ = Channel<T>::kNever;  ///< reader cycle of the last push
};

template <typename T>
class CdcFifo final : public Channel<T> {
 public:
  /// `ready_delay` — reader cycles between push and the item becoming
  /// poppable (link pipeline + synchronizer). `capacity` — occupancy bound
  /// the credit loop guarantees (violations are invariant failures, not
  /// backpressure: the NoC's credits must already prevent them).
  CdcFifo(int ready_delay, int capacity, const std::uint64_t* reader_clock)
      : Channel<T>(reader_clock), ready_delay_(ready_delay), capacity_(capacity) {
    if (ready_delay < 1) throw std::invalid_argument("CdcFifo: ready_delay must be >= 1");
    if (capacity < 1) throw std::invalid_argument("CdcFifo: capacity must be >= 1");
  }

  /// Writer-domain side: any number of pushes may land between two reader
  /// cycles (the domains are asynchronous); FIFO order is preserved.
  void push(T item) override {
    NOCDVFS_ASSERT(queue_.size() < static_cast<std::size_t>(capacity_),
                   "CdcFifo: occupancy exceeds the credit bound");
    queue_.push_back(
        Slot{std::move(item), this->now() + static_cast<std::uint64_t>(ready_delay_)});
    this->mark_pending();
  }

  std::optional<T> pop() override {
    const std::uint64_t now = this->now();
    if (last_pop_ == now || queue_.empty() || now < queue_.front().ready_tick) {
      return std::nullopt;
    }
    last_pop_ = now;
    std::optional<T> out(std::move(queue_.front().item));
    queue_.pop_front();
    if (queue_.empty()) this->clear_pending();
    return out;
  }

  std::size_t in_flight() const noexcept override { return queue_.size(); }

 private:
  struct Slot {
    T item;
    std::uint64_t ready_tick = 0;  ///< reader cycle at which the item is stable
  };

  int ready_delay_;
  int capacity_;
  std::deque<Slot> queue_;
  std::uint64_t last_pop_ = Channel<T>::kNever;  ///< reader cycle of the last pop
};

// Concrete intra-domain links (the common case, and what unit tests build).
using FlitChannel = DelayLine<Flit>;
using CreditChannel = DelayLine<Credit>;

// Port-facing interface types routers and NIs are wired with.
using FlitPort = Channel<Flit>;
using CreditPort = Channel<Credit>;

using FlitCdcFifo = CdcFifo<Flit>;
using CreditCdcFifo = CdcFifo<Credit>;

}  // namespace nocdvfs::noc
