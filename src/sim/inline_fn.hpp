// Move-only, allocation-free callable for engine-scheduled events.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wsn::sim {

/// Small-buffer `void()` callable with **no heap fallback**: a closure
/// larger than the inline buffer is a compile error, not a silent
/// allocation. This is the engine's per-event cost contract — every
/// schedule stores its callback inline in the EventQueue slab, so the hot
/// path (schedule/cancel/pop) performs zero allocations in steady state.
///
/// Requirements on the wrapped callable F:
///   * sizeof(F) <= kInlineBytes (keep capture lists small: `this` plus a
///     couple of values; a shared_ptr capture costs 16 bytes),
///   * alignof(F) <= kAlign,
///   * nothrow move constructible (moves happen inside the queue's slab).
///
/// Copyable callables (e.g. a type-erased library wrapper, for test
/// convenience) are accepted and copied in; InlineFn itself is move-only.
class InlineFn {
 public:
  /// Inline storage size. Sized for the engine's largest closure family
  /// (`[this, shared_ptr, scalar]` ≈ 32 bytes) with headroom for a full
  /// type-erased library wrapper (32 bytes on libstdc++) so tests can
  /// schedule one.
  static constexpr std::size_t kInlineBytes = 48;
  static constexpr std::size_t kAlign = 16;

  InlineFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  // NOLINTNEXTLINE(google-explicit-constructor): callback sink by design
  InlineFn(F&& f) {  // NOLINT(bugprone-forwarding-reference-overload)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "engine closure exceeds InlineFn inline storage; shrink "
                  "the capture list (or raise kInlineBytes deliberately)");
    static_assert(alignof(Fn) <= kAlign,
                  "engine closure over-aligned for InlineFn storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "engine closures must be nothrow move constructible");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  InlineFn(InlineFn&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  /// Destroys the held callable (releasing captured resources), leaving
  /// the InlineFn empty.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Invokes the callable. Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs dst from src, then destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  struct OpsFor {
    static void invoke(void* self) { (*static_cast<Fn*>(self))(); }
    static void relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void destroy(void* self) { static_cast<Fn*>(self)->~Fn(); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  alignas(kAlign) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace wsn::sim
