// Grow-only, 64-byte-aligned scratch for the GEMM engines' thread-local
// pack buffers (linalg/gemm.cpp, linalg/gemm_s8.cpp).
//
// A packed panel is read by full-width vector loads, so its start sits on a
// cache line: one 64-byte AVX-512 load never splits across two lines.
// Capacity only ever grows, so after a thread's first-touch warm-up the
// steady state performs no heap allocation; the growth itself is the one
// allocation allowed inside a guarded run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "common/alloc_guard.h"

namespace tdc::detail {

template <typename T>
class PackBuffer {
  static_assert(std::is_trivial_v<T>);

 public:
  static constexpr std::size_t kAlign = 64;

  /// At least `count` elements, 64-byte aligned. Contents are unspecified
  /// after a growth (packs overwrite what they read).
  T* get(std::int64_t count) {
    if (count > capacity_) {
      AllowAllocScope warmup;
      data_.reset(static_cast<T*>(
          ::operator new(static_cast<std::size_t>(count) * sizeof(T),
                         std::align_val_t{kAlign})));
      capacity_ = count;
    }
    return data_.get();
  }

 private:
  struct Free {
    void operator()(T* p) const {
      ::operator delete(p, std::align_val_t{kAlign});
    }
  };

  std::unique_ptr<T, Free> data_;
  std::int64_t capacity_ = 0;
};

}  // namespace tdc::detail
