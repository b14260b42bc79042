#include "exec/epilogue.h"

#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace tdc {

namespace detail {

namespace {

// a·t + b with the rounding the compiler gives the written expression: one
// fused rounding where the target has FMA, a rounded product otherwise.
inline float affine_scalar(float a, float t, float b) {
#if defined(__FMA__)
  return std::fma(a, t, b);
#else
  const float p = a * t;
  return p + b;
#endif
}

#if defined(__AVX512F__)
inline __m512 affine_vec(__m512 a, __m512 t, __m512 b) {
#if defined(__FMA__)
  return _mm512_fmadd_ps(a, t, b);
#else
  return _mm512_add_ps(_mm512_mul_ps(a, t), b);
#endif
}
#elif defined(__AVX2__)
inline __m256 affine_vec(__m256 a, __m256 t, __m256 b) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, t, b);
#else
  return _mm256_add_ps(_mm256_mul_ps(a, t), b);
#endif
}
#endif

// The vector bodies use max_ps(v, 0), which returns its second operand
// unless v > 0: bitwise `v > 0 ? v : 0`, NaN and −0 included.
template <bool kAffine, bool kResidual, bool kRelu>
void row(const float* t, float* y, std::int64_t count, float a, float b,
         const float* r) {
  std::int64_t i = 0;
#if defined(__AVX512F__)
  const __m512 va = _mm512_set1_ps(a);
  const __m512 vb = _mm512_set1_ps(b);
  const __m512 zero = _mm512_setzero_ps();
  for (; i + 16 <= count; i += 16) {
    __m512 v = _mm512_loadu_ps(t + i);
    if constexpr (kAffine) {
      v = affine_vec(va, v, vb);
    }
    if constexpr (kResidual) {
      v = _mm512_add_ps(v, _mm512_loadu_ps(r + i));
    }
    if constexpr (kRelu) {
      // maskz with a full mask is vmaxps itself; the unmasked intrinsic
      // trips GCC 12's -Wmaybe-uninitialized on its undefined pass-through.
      v = _mm512_maskz_max_ps(__mmask16{0xFFFF}, v, zero);
    }
    _mm512_storeu_ps(y + i, v);
  }
#elif defined(__AVX2__)
  const __m256 va = _mm256_set1_ps(a);
  const __m256 vb = _mm256_set1_ps(b);
  const __m256 zero = _mm256_setzero_ps();
  for (; i + 8 <= count; i += 8) {
    __m256 v = _mm256_loadu_ps(t + i);
    if constexpr (kAffine) {
      v = affine_vec(va, v, vb);
    }
    if constexpr (kResidual) {
      v = _mm256_add_ps(v, _mm256_loadu_ps(r + i));
    }
    if constexpr (kRelu) {
      v = _mm256_max_ps(v, zero);
    }
    _mm256_storeu_ps(y + i, v);
  }
#endif
  for (; i < count; ++i) {
    float v = t[i];
    if constexpr (kAffine) {
      v = affine_scalar(a, v, b);
    }
    if constexpr (kResidual) {
      v = v + r[i];
    }
    if constexpr (kRelu) {
      v = v > 0.0f ? v : 0.0f;
    }
    y[i] = v;
  }
}

template <bool kAffine, bool kResidual>
void row_relu(const float* t, float* y, std::int64_t count, float a, float b,
              const float* r, bool relu) {
  if (relu) {
    row<kAffine, kResidual, true>(t, y, count, a, b, r);
  } else {
    row<kAffine, kResidual, false>(t, y, count, a, b, r);
  }
}

}  // namespace

void eltwise_row(const float* t, float* y, std::int64_t count, bool affine,
                 float a, float b, const float* residual, bool relu) {
  if (affine) {
    if (residual != nullptr) {
      row_relu<true, true>(t, y, count, a, b, residual, relu);
    } else {
      row_relu<true, false>(t, y, count, a, b, residual, relu);
    }
  } else if (residual != nullptr) {
    row_relu<false, true>(t, y, count, a, b, residual, relu);
  } else {
    row_relu<false, false>(t, y, count, a, b, residual, relu);
  }
}

}  // namespace detail

void ConvEpilogue::apply(float* y, std::int64_t n, std::int64_t at,
                         std::int64_t count) const {
  detail::eltwise_row(y + at, y + at, count, true, scale[n], shift[n],
                      residual != nullptr ? residual + at : nullptr, relu);
}

}  // namespace tdc
