// Allocation-free callable for engine-scheduled events, built in place.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wsn::sim {

/// Small-buffer `void()` callable with **no heap fallback**: a closure
/// larger than the inline buffer is a compile error, not a silent
/// allocation. This is the engine's per-event cost contract — every
/// schedule builds its callback in place in an EventQueue slab slot (a
/// timer's in its own queue node), and dispatch runs it there, so the hot
/// path (schedule/cancel/dispatch) neither allocates nor moves a closure.
/// InlineFn is therefore neither copyable nor movable.
///
/// Requirements on the wrapped callable F:
///   * sizeof(F) <= kInlineBytes (keep capture lists small: `this` plus a
///     couple of values; a shared_ptr capture costs 16 bytes),
///   * alignof(F) <= kAlign,
///   * nothrow move constructible (closures are handed over by value).
///
/// Copyable callables (e.g. a type-erased library wrapper, for test
/// convenience) are accepted and copied in.
class InlineFn {
 public:
  /// Inline storage size. Sized for the engine's largest closure family
  /// (`[this, shared_ptr, scalar]` ≈ 32 bytes) with headroom for a full
  /// type-erased library wrapper (32 bytes on libstdc++) so tests can
  /// schedule one.
  static constexpr std::size_t kInlineBytes = 48;
  static constexpr std::size_t kAlign = 16;

  InlineFn() = default;
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  /// Builds `f` in the inline buffer. Precondition: empty.
  template <typename F>
    requires std::is_invocable_r_v<void, std::decay_t<F>&>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "engine closure exceeds InlineFn inline storage; shrink "
                  "the capture list (or raise kInlineBytes deliberately)");
    static_assert(alignof(Fn) <= kAlign,
                  "engine closure over-aligned for InlineFn storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "engine closures must be nothrow move constructible");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* self) { (*static_cast<Fn*>(self))(); };
    if constexpr (!std::is_trivially_destructible_v<Fn>) {
      destroy_ = [](void* self) { static_cast<Fn*>(self)->~Fn(); };
    }
  }

  /// Destroys the held callable (releasing captured resources), leaving
  /// the InlineFn empty.
  void reset() {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

  /// Invokes the callable in place. Precondition: non-empty.
  void operator()() { invoke_(storage_); }

 private:
  alignas(kAlign) std::byte storage_[kInlineBytes];
  void (*invoke_)(void* self) = nullptr;
  void (*destroy_)(void* self) = nullptr;  ///< null when trivial
};

}  // namespace wsn::sim
