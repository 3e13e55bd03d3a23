// InlineFunction: a move-only std::function replacement for the simulator's
// hot path. Callables whose capture fits the inline buffer are stored in
// place — scheduling an event then costs zero heap allocations — and only
// oversized (or over-aligned, or throwing-move) callables fall back to a
// heap box. Unlike std::function it accepts move-only captures
// (std::unique_ptr and friends), which timer closures increasingly want.
//
// Dispatch is one vtable pointer per object: {invoke, relocate, destroy},
// instantiated per decayed callable type. Relocation is destructive
// (move-construct at the destination, destroy the source), which is what the
// event slab needs when its slot vector regrows, and is a pointer copy for
// heap-boxed callables.
//
// Heap fallbacks are counted in a thread-local counter
// (inline_function_heap_allocs()) so tests and benchmarks can assert the
// zero-allocation property of the scheduling hot path. The counter is
// per-thread: BatchRunner workers each drive their own simulator, and a
// worker's count is never perturbed by its siblings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>  // std::bad_function_call
#include <new>
#include <type_traits>
#include <utility>

namespace ebrc::sim {

namespace inline_function_detail {
inline thread_local std::uint64_t heap_allocs = 0;
}  // namespace inline_function_detail

/// Number of heap-fallback allocations made by InlineFunction on this thread
/// since it started. Monotonic; sample before/after a region and subtract.
[[nodiscard]] inline std::uint64_t inline_function_heap_allocs() noexcept {
  return inline_function_detail::heap_allocs;
}

template <typename Signature, std::size_t Capacity>
class InlineFunction;  // primary template intentionally undefined

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
  static_assert(Capacity >= sizeof(void*), "capacity must hold at least a pointer");

  /// A callable D is stored inline when it fits the buffer, needs no stricter
  /// alignment than a pointer, and can be relocated without throwing.
  template <typename D>
  static constexpr bool stores_inline_v = sizeof(D) <= Capacity &&
                                          alignof(D) <= alignof(void*) &&
                                          std::is_nothrow_move_constructible_v<D>;

 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Wraps any callable invocable as R(Args...).
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (stores_inline_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      if constexpr (sizeof(D) < sizeof(std::uint64_t)) {
        // Zero-pad to the compress() payload width so the word read there is
        // fully initialized (an empty lambda stores no bytes of its own).
        std::memset(buf_ + sizeof(D), 0, sizeof(std::uint64_t) - sizeof(D));
      }
      vt_ = &kVTable<D, /*Heap=*/false>;
    } else {
      ++inline_function_detail::heap_allocs;
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &kVTable<D, /*Heap=*/true>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  /// True when a callable is held.
  explicit operator bool() const noexcept { return vt_ != nullptr; }

  R operator()(Args... args) const {
    if (!vt_) throw std::bad_function_call();
    return vt_->invoke(vt_->heap ? *reinterpret_cast<void* const*>(buf_)
                                 : static_cast<void*>(buf_),
                       std::forward<Args>(args)...);
  }

  /// True when the held callable lives in a heap box (capture too large for
  /// the inline buffer). Exposed for the allocation tests.
  [[nodiscard]] bool uses_heap() const noexcept { return vt_ != nullptr && vt_->heap; }

  // -- Compressed representation -------------------------------------------
  //
  // A callable whose meaningful state is at most 8 trivially relocatable
  // bytes (a captureless lambda, a `this` capture, or a heap box's pointer)
  // is fully described by its vtable pointer plus one 64-bit payload word.
  // The event slab stores such callbacks in 16-byte slots instead of
  // full-width ones — with tens of thousands of events pending this is the
  // difference between the callback pool fitting in L2 or thrashing it.
  // compress() transfers ownership out (no destructor will run on this
  // object); decompress() reconstitutes an equivalent InlineFunction. An
  // empty function compresses to {nullptr, 0}.

  struct Compressed {
    const void* vtable = nullptr;
    std::uint64_t payload = 0;
  };

  /// True when compress()/decompress() round-trips this callable.
  [[nodiscard]] bool compressible() const noexcept {
    return vt_ == nullptr || (vt_->trivial_relocate && vt_->size <= sizeof(std::uint64_t));
  }

  /// Destructive: returns the compressed form and leaves this empty.
  /// Pre-condition: compressible().
  [[nodiscard]] Compressed compress() noexcept {
    Compressed c;
    if (vt_ != nullptr) {
      c.vtable = vt_;
      std::memcpy(&c.payload, buf_, sizeof(c.payload));
      vt_ = nullptr;  // ownership moved; no destroy (state was trivially relocatable)
    }
    return c;
  }

  /// Reconstitutes a callable previously taken apart by compress().
  [[nodiscard]] static InlineFunction decompress(Compressed c) noexcept {
    InlineFunction f;
    if (c.vtable != nullptr) {
      f.vt_ = static_cast<const VTable*>(c.vtable);
      std::memcpy(f.buf_, &c.payload, sizeof(c.payload));
    }
    return f;
  }

  /// Prefetch hint at the callable's state: the first stored word, which for
  /// the closures the kernel pins is a captured `this` or a heap box's
  /// pointer. Any other first word only makes a harmless no-op prefetch.
  void prefetch_target() const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (vt_ == nullptr) return;
    const void* target = nullptr;
    std::memcpy(&target, buf_, sizeof(target));
    __builtin_prefetch(target, /*rw=*/0, /*locality=*/3);
#endif
  }

  /// Inline buffer size in bytes.
  [[nodiscard]] static constexpr std::size_t capacity() noexcept { return Capacity; }

 private:
  struct VTable {
    R (*invoke)(void* obj, Args&&... args);
    void (*relocate)(void* from, void* to) noexcept;  // destructive move of the buffer
    void (*destroy)(void* buffer) noexcept;
    bool heap;
    // Hot-path fast flags: a trivially relocatable buffer is moved with a
    // fixed-size memcpy instead of an indirect call (true for trivially
    // copyable inline captures AND for heap boxes — stealing the box pointer
    // is exactly a buffer copy), and a trivially destructible inline capture
    // needs no destroy call at all. The kernel moves every callback into and
    // out of its slab slot, so these flags remove two indirect calls per
    // event for typical captures.
    bool trivial_relocate;
    bool trivial_destroy;
    std::uint32_t size;  // sizeof the stored representation (callable or box pointer)
  };

  template <typename D, bool Heap>
  static constexpr VTable kVTable{
      /*invoke=*/[](void* obj, Args&&... args) -> R {
        return (*static_cast<D*>(obj))(std::forward<Args>(args)...);
      },
      /*relocate=*/
      [](void* from, void* to) noexcept {
        if constexpr (Heap) {
          ::new (to) D*(*static_cast<D**>(from));  // steal the box pointer
        } else {
          D* src = static_cast<D*>(from);
          ::new (to) D(std::move(*src));
          src->~D();
        }
      },
      /*destroy=*/
      [](void* buffer) noexcept {
        if constexpr (Heap) {
          delete *static_cast<D**>(buffer);
        } else {
          static_cast<D*>(buffer)->~D();
        }
      },
      /*heap=*/Heap,
      /*trivial_relocate=*/Heap || std::is_trivially_copyable_v<D>,
      /*trivial_destroy=*/!Heap && std::is_trivially_destructible_v<D>,
      /*size=*/Heap ? static_cast<std::uint32_t>(sizeof(D*))
                    : static_cast<std::uint32_t>(sizeof(D))};

  void move_from(InlineFunction& other) noexcept {
    if (other.vt_ != nullptr) {
      if (other.vt_->trivial_relocate) {
        std::memcpy(buf_, other.buf_, Capacity);
      } else {
        other.vt_->relocate(other.buf_, buf_);
      }
      vt_ = other.vt_;
      other.vt_ = nullptr;
    }
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (!vt_->trivial_destroy) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(void*) mutable unsigned char buf_[Capacity];
};

}  // namespace ebrc::sim
