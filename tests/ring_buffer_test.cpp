// Boundary behavior of the packet path's ring buffer: wrap-around, empty and
// full edges, and geometric regrowth preserving FIFO order.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/ring_buffer.hpp"

namespace {

using ebrc::util::RingBuffer;
using ebrc::util::round_up_pow2;

TEST(RingBuffer, RoundUpPow2) {
  EXPECT_EQ(round_up_pow2(0), 2u);
  EXPECT_EQ(round_up_pow2(1), 2u);
  EXPECT_EQ(round_up_pow2(2), 2u);
  EXPECT_EQ(round_up_pow2(3), 4u);
  EXPECT_EQ(round_up_pow2(16), 16u);
  EXPECT_EQ(round_up_pow2(17), 32u);
  EXPECT_EQ(round_up_pow2(1000), 1024u);
}

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> r(8);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.capacity(), 8u);
}

TEST(RingBuffer, FifoThroughManyWraps) {
  RingBuffer<int> r(4);
  int next_in = 0;
  int next_out = 0;
  // Push/pop at mixed cadence, draining to the 4-slot bound, so head_ wraps
  // the ring hundreds of times without ever growing.
  for (int round = 0; round < 1000; ++round) {
    r.push_back(next_in++);
    while (r.size() > (round % 3 == 0 ? 1u : 3u)) {
      ASSERT_EQ(r.front(), next_out) << "round " << round;
      r.pop_front();
      ++next_out;
    }
    ASSERT_LE(r.size(), 4u) << "round " << round;
  }
  EXPECT_EQ(r.capacity(), 4u);  // never grew
  while (!r.empty()) {
    EXPECT_EQ(r.front(), next_out++);
    r.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingBuffer, FullTriggersGrowthPreservingOrder) {
  RingBuffer<int> r(4);
  // Misalign head first so the regrowth has to unwrap a split run.
  for (int i = 0; i < 3; ++i) r.push_back(i);
  r.pop_front();
  r.pop_front();  // head at offset 2, one element (2) left
  for (int i = 3; i < 20; ++i) r.push_back(i);  // forces capacity 4 -> 32
  EXPECT_EQ(r.size(), 18u);
  EXPECT_GE(r.capacity(), 18u);
  for (int i = 2; i < 20; ++i) {
    ASSERT_EQ(r.front(), i);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(RingBuffer, GrowthFromUnsizedDefault) {
  RingBuffer<std::uint64_t> r;  // no hint: first push allocates
  EXPECT_EQ(r.capacity(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) r.push_back(i);
  EXPECT_EQ(r.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(r.front(), i);
    r.pop_front();
  }
}

TEST(RingBuffer, GrowthFromEmptyStartsAtTwoAndUnwrapsEveryDoubling) {
  RingBuffer<int> r;  // unsized, as a per-flow pipe's ring is
  EXPECT_EQ(r.capacity(), 0u);
  r.push_back(0);
  EXPECT_EQ(r.capacity(), 2u) << "the first push allocates 2 entries, not more";
  // Net growth of one element per round with the head always moving, so
  // the ring is full over a wrapped run each time it doubles.
  std::vector<std::size_t> capacities{r.capacity()};
  int next_in = 1;
  int next_out = 0;
  while (r.capacity() < 64) {
    r.push_back(next_in++);
    r.push_back(next_in++);
    ASSERT_EQ(r.front(), next_out++);
    r.pop_front();
    if (r.capacity() != capacities.back()) capacities.push_back(r.capacity());
  }
  EXPECT_EQ(capacities, (std::vector<std::size_t>{2, 4, 8, 16, 32, 64}));
  while (!r.empty()) {
    ASSERT_EQ(r.front(), next_out++);
    r.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingBuffer, AtOffsetIndexesFromFront) {
  RingBuffer<int> r(8);
  for (int i = 0; i < 6; ++i) r.push_back(i);
  r.pop_front();
  r.pop_front();
  r.push_back(6);
  r.push_back(7);  // wraps
  // Logical contents: 2,3,4,5,6,7.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(r.at_offset(static_cast<std::size_t>(i)), i + 2);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> r(4);
  for (int i = 0; i < 3; ++i) r.push_back(i);
  r.clear();
  EXPECT_TRUE(r.empty());
  r.push_back(42);
  EXPECT_EQ(r.front(), 42);
  EXPECT_EQ(r.size(), 1u);
}

}  // namespace
