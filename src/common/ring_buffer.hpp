#pragma once

/// \file ring_buffer.hpp
/// Fixed-capacity FIFO used for VC buffers. Capacity is set at construction
/// (runtime router parameter); push/pop are O(1) with no allocation after
/// construction. Overflow/underflow are invariant violations, not errors —
/// credit-based flow control must make them impossible.

#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace nocdvfs::common {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : slots_(capacity) {
    if (capacity == 0) throw std::invalid_argument("RingBuffer: capacity must be positive");
  }

  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == slots_.size(); }
  std::size_t size() const noexcept { return size_; }

  void push(T value) {
    NOCDVFS_ASSERT(!full(), "RingBuffer overflow");
    slots_[(head_ + size_) % slots_.size()] = std::move(value);
    ++size_;
  }

  T pop() {
    NOCDVFS_ASSERT(!empty(), "RingBuffer underflow");
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --size_;
    return out;
  }

  const T& front() const {
    NOCDVFS_ASSERT(!empty(), "RingBuffer::front on empty buffer");
    return slots_[head_];
  }

  T& front() {
    NOCDVFS_ASSERT(!empty(), "RingBuffer::front on empty buffer");
    return slots_[head_];
  }

  /// i-th element from the front (0 == front); for debug/tests only.
  const T& at(std::size_t i) const {
    NOCDVFS_ASSERT(i < size_, "RingBuffer::at out of range");
    return slots_[(head_ + i) % slots_.size()];
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nocdvfs::common
