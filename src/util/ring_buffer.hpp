// A power-of-two ring buffer for the packet path's POD payloads.
//
// The network layer keeps every queued, in-service, and in-flight packet in
// one of these instead of a std::deque: contiguous storage, index-mask
// addressing, and no per-node allocation. A queue sizes its rings up front
// from its buffer size (round_up_pow2); an unsized ring allocates nothing
// until its first push and then doubles from 2 entries, so a million mostly
// idle per-flow pipes cost a few words each instead of a pre-sized array.
// Either way the steady state performs zero heap allocations: growth is
// geometric and one-time, paid only when the in-flight population reaches a
// new high.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace ebrc::util {

/// Smallest power of two >= n (and >= 2).
[[nodiscard]] constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

template <typename T>
class RingBuffer {
  static_assert(std::is_nothrow_move_constructible_v<T> || std::is_copy_assignable_v<T>,
                "RingBuffer payloads must relocate cheaply");

 public:
  /// `capacity_hint` pre-sizes the ring (rounded up to a power of two);
  /// 0 defers allocation to the first push.
  explicit RingBuffer(std::size_t capacity_hint = 0) {
    if (capacity_hint > 0) reallocate(round_up_pow2(capacity_hint));
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  void push_back(const T& v) {
    if (count_ == buf_.size()) reallocate(buf_.empty() ? kMinCapacity : buf_.size() * 2);
    buf_[(head_ + count_) & mask_] = v;
    ++count_;
  }

  [[nodiscard]] T& front() noexcept {
    assert(count_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const noexcept {
    assert(count_ > 0);
    return buf_[head_];
  }

  /// Element `i` positions behind the front (0 = front). i < size().
  [[nodiscard]] T& at_offset(std::size_t i) noexcept {
    assert(i < count_);
    return buf_[(head_ + i) & mask_];
  }
  [[nodiscard]] const T& at_offset(std::size_t i) const noexcept {
    assert(i < count_);
    return buf_[(head_ + i) & mask_];
  }

  void pop_front() noexcept {
    assert(count_ > 0);
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 2;

  void reallocate(std::size_t new_capacity) {
    std::vector<T> next(new_capacity);
    for (std::size_t i = 0; i < count_; ++i) next[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(next);
    head_ = 0;
    mask_ = buf_.size() - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace ebrc::util
