// Unit tests for InlineFunction: inline storage of small captures with zero
// heap allocations, the heap fallback for oversized captures (counted),
// move-only capture support, destructor accounting, and the compressed
// one-word representation the event slab uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"

namespace {

using ebrc::sim::EventFn;
using ebrc::sim::inline_function_heap_allocs;
using ebrc::sim::InlineFunction;

TEST(InlineFunction, SmallCaptureStoresInlineWithZeroAllocations) {
  const std::uint64_t before = inline_function_heap_allocs();
  int x = 0;
  struct {
    double a[6];
  } big48{{1, 2, 3, 4, 5, 6}};
  EventFn small([&x] { ++x; });                               // 8-byte capture
  EventFn mid([&x, big48] { x += static_cast<int>(big48.a[0]); });  // 56-byte capture
  EXPECT_FALSE(small.uses_heap());
  EXPECT_FALSE(mid.uses_heap());
  EXPECT_EQ(inline_function_heap_allocs(), before);
  small();
  mid();
  EXPECT_EQ(x, 2);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeapAndIsCounted) {
  const std::uint64_t before = inline_function_heap_allocs();
  struct {
    double a[8];
  } big64{{1, 2, 3, 4, 5, 6, 7, 8}};
  double sink = 0;
  EventFn fn([&sink, big64] { sink += big64.a[7]; });  // 64 + 8 bytes > 56
  EXPECT_TRUE(fn.uses_heap());
  EXPECT_EQ(inline_function_heap_allocs(), before + 1);
  fn();
  EXPECT_DOUBLE_EQ(sink, 8.0);
}

TEST(InlineFunction, MoveOnlyCapturesWork) {
  auto box = std::make_unique<int>(41);
  int result = 0;
  EventFn fn([&result, b = std::move(box)] { result = *b + 1; });
  EXPECT_FALSE(fn.uses_heap());  // unique_ptr capture is 8 bytes
  EventFn moved = std::move(fn);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move) — moved-from is empty
  EXPECT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(result, 42);
}

struct DtorCounter {
  int* count;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& o) noexcept : count(o.count) { o.count = nullptr; }
  DtorCounter(const DtorCounter& o) = default;
  ~DtorCounter() {
    if (count != nullptr) ++*count;
  }
};

TEST(InlineFunction, DestructorRunsExactlyOnceThroughMoves) {
  int destroyed = 0;
  {
    EventFn fn([d = DtorCounter(&destroyed)] { (void)d; });
    EventFn second = std::move(fn);
    EventFn third;
    third = std::move(second);
    EXPECT_EQ(destroyed, 0);  // live capture not destroyed by relocation
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, AssigningOverDestroysThePreviousCallable) {
  int destroyed = 0;
  EventFn fn([d = DtorCounter(&destroyed)] { (void)d; });
  fn = nullptr;
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(fn);
}

TEST(InlineFunction, EmptyCallThrowsBadFunctionCall) {
  EventFn fn;
  EXPECT_THROW(fn(), std::bad_function_call);
  EventFn null2(nullptr);
  EXPECT_THROW(null2(), std::bad_function_call);
}

TEST(InlineFunction, ArgumentsAndReturnValuesPassThrough) {
  InlineFunction<int(int, int), 24> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(20, 22), 42);
}

TEST(InlineFunction, CompressRoundTripsTinyAndBoxedCallables) {
  int calls = 0;
  EventFn tiny([&calls] { ++calls; });
  ASSERT_TRUE(tiny.compressible());
  EventFn back = EventFn::decompress(tiny.compress());
  EXPECT_FALSE(tiny);  // ownership moved out
  back();
  EXPECT_EQ(calls, 1);

  // Oversized capture: the heap box pointer is the one-word payload.
  struct {
    double a[8];
  } big64{{0, 0, 0, 0, 0, 0, 0, 9}};
  double sink = 0;
  EventFn boxed([&sink, big64] { sink = big64.a[7]; });
  ASSERT_TRUE(boxed.uses_heap());
  ASSERT_TRUE(boxed.compressible());
  EventFn boxed_back = EventFn::decompress(boxed.compress());
  boxed_back();
  EXPECT_DOUBLE_EQ(sink, 9.0);

  // Mid-sized trivial captures stay full-width.
  struct {
    double a[4];
  } big32{{1, 2, 3, 4}};
  EventFn mid([&sink, big32] { sink = big32.a[0]; });
  EXPECT_FALSE(mid.compressible());

  // The empty function compresses to the null representation.
  EventFn none;
  ASSERT_TRUE(none.compressible());
  EventFn none_back = EventFn::decompress(none.compress());
  EXPECT_FALSE(none_back);
}

TEST(InlineFunction, PrefetchTargetIsAHintOnEveryRepresentation) {
  // The kernel calls prefetch_target() on whatever pinned callback sits a
  // few events ahead: empty, captureless, `this`-like, non-pointer and
  // heap-boxed state must all be safe to hint at and stay callable.
  int calls = 0;
  EventFn none;
  EventFn captureless([] {});
  EventFn pointer([&calls] { ++calls; });
  const double d = 1.5;
  EventFn value([d, &calls] { calls += d > 1.0 ? 1 : 0; });
  struct {
    double a[8];
  } big{{0, 0, 0, 0, 0, 0, 0, 1}};
  EventFn boxed([big, &calls] { calls += static_cast<int>(big.a[7]); });
  ASSERT_TRUE(boxed.uses_heap());
  for (const EventFn* f : {&none, &captureless, &pointer, &value, &boxed}) f->prefetch_target();
  captureless();
  pointer();
  value();
  boxed();
  EXPECT_EQ(calls, 3);
}

TEST(InlineFunction, SchedulingSmallCapturesAllocatesNothing) {
  // The acceptance property of the kernel rewrite: zero heap allocations per
  // scheduled event for captures up to 56 bytes.
  ebrc::sim::Simulator sim;
  double sink = 0;
  struct {
    double a[6];
  } big48{{1, 2, 3, 4, 5, 6}};
  // Warm up the simulator's pools (vector growth is not a per-event cost).
  for (int i = 0; i < 64; ++i) sim.schedule(1e-4 * i, [&sink] { sink += 1; });
  sim.run();

  const std::uint64_t before = inline_function_heap_allocs();
  for (int i = 0; i < 1000; ++i) {
    sim.schedule(1e-4, [&sink] { sink += 1; });                       // 8B capture
    sim.schedule(2e-4, [&sink, big48] { sink += big48.a[5]; });       // 56B capture
    sim.run();
  }
  EXPECT_EQ(inline_function_heap_allocs(), before);
  EXPECT_DOUBLE_EQ(sink, 64.0 + 1000.0 * 7.0);
}

TEST(InlineFunction, OversizedScheduleAllocatesExactlyOncePerEvent) {
  ebrc::sim::Simulator sim;
  struct {
    double a[16];
  } big128{};
  big128.a[0] = 1;
  double sink = 0;
  const std::uint64_t before = inline_function_heap_allocs();
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1e-4, [&sink, big128] { sink += big128.a[0]; });
  }
  sim.run();
  EXPECT_EQ(inline_function_heap_allocs(), before + 10);
  EXPECT_DOUBLE_EQ(sink, 10.0);
}

}  // namespace
