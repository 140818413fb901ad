// FIFO of jobs waiting behind a server's in-flight job.
//
// A power-of-two ring buffer sized by the live queue: it holds no storage
// while empty, starts at kMinCapacity on the first push, doubles when
// full and halves once at most a quarter full.  Storage therefore stays
// within max(kMinCapacity, 4 x live length) jobs, and an idle server costs
// the 24 bytes of this object, not the ~600 bytes an empty std::deque
// allocates up front — which matters for a mostly parked fleet of 1e5+.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/job.h"
#include "util/assert.h"

namespace gc {

class WaitQueue {
 public:
  static constexpr std::uint32_t kMinCapacity = 4;

  WaitQueue() = default;
  WaitQueue(WaitQueue&& other) noexcept { *this = std::move(other); }
  WaitQueue& operator=(WaitQueue&& other) noexcept {
    buf_ = std::move(other.buf_);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  // Jobs of storage currently held (0 until the first push).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  // The i-th waiting job in service order (0 = next to start).
  [[nodiscard]] const Job& operator[](std::size_t i) const noexcept {
    return buf_[(head_ + i) & (capacity_ - 1)];
  }
  [[nodiscard]] const Job& front() const noexcept { return buf_[head_]; }

  void push_back(const Job& job) {
    if (size_ == capacity_) resize(capacity_ == 0 ? kMinCapacity : 2 * capacity_);
    buf_[(head_ + size_) & (capacity_ - 1)] = job;
    ++size_;
  }

  void pop_front() {
    GC_DCHECK(size_ > 0, "WaitQueue::pop_front on an empty queue");
    if (--size_ == 0) {
      clear();
      return;
    }
    head_ = (head_ + 1) & (capacity_ - 1);
    if (capacity_ > kMinCapacity && 4 * size_ <= capacity_) resize(capacity_ / 2);
  }

  // Drops every job and releases the storage.
  void clear() noexcept {
    buf_.reset();
    head_ = size_ = capacity_ = 0;
  }

 private:
  // Moves the live jobs to the front of a fresh buffer of `capacity` slots.
  void resize(std::uint32_t capacity) {
    auto next = std::make_unique<Job[]>(capacity);
    for (std::uint32_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_ = std::move(next);
    head_ = 0;
    capacity_ = capacity;
  }

  std::unique_ptr<Job[]> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

}  // namespace gc
