// Copyable small-buffer callable for simulation event payloads.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace dts::sim {

/// A copyable `void()` callable that stores closures of up to kInlineBytes in
/// place and larger ones on the heap. It replaces std::function as the event
/// payload: std::function's inline buffer (16 bytes in libstdc++) is too small
/// for the kernel's wake closures, so every scheduled event used to allocate.
/// Copyable because event-queue snapshots copy the pending callbacks.
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert implicitly
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(const Callback& o) : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->copy(buf_, o.buf_);
  }
  Callback(Callback&& o) noexcept : ops_(std::exchange(o.ops_, nullptr)) {
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
  }
  Callback& operator=(const Callback& o) {
    if (this != &o) *this = Callback(o);
    return *this;
  }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = std::exchange(o.ops_, nullptr);
      if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    }
    return *this;
  }
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the closure. Throws std::bad_function_call when empty, like
  /// std::function.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(buf_);
  }

  /// True when the closure lives in the inline buffer (no heap allocation).
  bool is_inline() const noexcept { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*copy)(void* dst, const void* src);
    /// Move-constructs `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, const void* src) { ::new (dst) D(*static_cast<const D*>(src)); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
      true,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**static_cast<D**>(self))(); },
      [](void* dst, const void* src) { ::new (dst) D*(new D(**static_cast<D* const*>(src))); },
      [](void* dst, void* src) noexcept { ::new (dst) D*(*static_cast<D**>(src)); },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
      false,
  };

  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace dts::sim
