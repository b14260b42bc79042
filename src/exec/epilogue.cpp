#include "exec/epilogue.h"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/parallel.h"

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

// One pooled output: the window clipped to the image, so padding taps are
// skipped (max) and excluded from the divisor (avg).
float pool_window(const PoolDescriptor& d, const float* rows,
                  std::int64_t row0, std::int64_t o_h, std::int64_t o_w) {
  const std::int64_t h0 = o_h * d.stride_h - d.pad_h;
  const std::int64_t w0 = o_w * d.stride_w - d.pad_w;
  const std::int64_t hb = std::max<std::int64_t>(h0, 0);
  const std::int64_t he = std::min(h0 + d.window_h, d.in.h);
  const std::int64_t wb = std::max<std::int64_t>(w0, 0);
  const std::int64_t we = std::min(w0 + d.window_w, d.in.w);
  if (d.kind == PoolKind::kMax) {
    float best = -std::numeric_limits<float>::infinity();
    for (std::int64_t ih = hb; ih < he; ++ih) {
      for (std::int64_t iw = wb; iw < we; ++iw) {
        best = std::max(best, rows[(ih - row0) * d.in.w + iw]);
      }
    }
    return best;
  }
  double acc = 0.0;
  for (std::int64_t ih = hb; ih < he; ++ih) {
    for (std::int64_t iw = wb; iw < we; ++iw) {
      acc += rows[(ih - row0) * d.in.w + iw];
    }
  }
  return static_cast<float>(acc /
                            static_cast<double>((he - hb) * (we - wb)));
}

#if defined(__AVX2__)
// p[0], p[2], ..., p[14].
__m256 even_lanes(const float* p) {
  const __m256 e = _mm256_shuffle_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8),
                                     _MM_SHUFFLE(2, 0, 2, 0));
  // e = [p0 p2 p8 p10 | p4 p6 p12 p14]; swap the middle 64-bit pairs.
  return _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(e),
                                                _MM_SHUFFLE(3, 1, 2, 0)));
}
#endif

// Max-pool fast path over the windows of pooled row o_h that lie wholly
// inside the image, from column vb on: no clipping, 8 output columns per
// AVX vector, for column strides 1 and 2. Writes [vb, returned end);
// returns vb when the row does not qualify (and always on generic builds).
// Each lane takes _mm256_max_ps(v, best) — v > best ? v : best — over the
// window in pool_window's order, which is std::max(best, v) bit for bit:
// NaN taps are skipped, and of equal values (±0) the first is kept.
std::int64_t max_interior_row([[maybe_unused]] const PoolDescriptor& d,
                              [[maybe_unused]] const float* rows,
                              [[maybe_unused]] std::int64_t row0,
                              [[maybe_unused]] std::int64_t o_h,
                              std::int64_t vb,
                              [[maybe_unused]] float* orow) {
  std::int64_t o_w = vb;
#if defined(__AVX2__)
  const std::int64_t sw = d.stride_w;
  const std::int64_t h0 = o_h * d.stride_h - d.pad_h;
  if (d.kind != PoolKind::kMax || (sw != 1 && sw != 2) || h0 < 0 ||
      h0 + d.window_h > d.in.h) {
    return vb;
  }
  // A block of 8 outputs at o_w reads input columns from o_w·sw − pad_w
  // through (window_w − 1) + 8·sw − 1 further (stride 2 loads 16 floats
  // and keeps the even ones), all of which must lie in the row.
  for (; o_w + 8 <= d.out_w() &&
         o_w * sw - d.pad_w + d.window_w - 1 + 8 * sw <= d.in.w;
       o_w += 8) {
    __m256 best = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    for (std::int64_t ih = h0; ih < h0 + d.window_h; ++ih) {
      const float* in = rows + (ih - row0) * d.in.w + o_w * sw - d.pad_w;
      for (std::int64_t s = 0; s < d.window_w; ++s) {
        best = _mm256_max_ps(
            sw == 1 ? _mm256_loadu_ps(in + s) : even_lanes(in + s), best);
      }
    }
    _mm256_storeu_ps(orow + o_w, best);
  }
#endif
  return o_w;
}

}  // namespace

void pool_rows(const PoolDescriptor& d, const float* rows, std::int64_t row0,
               std::int64_t o_h0, std::int64_t o_h1, float* out) {
  const std::int64_t ow = d.out_w();
  // First output column whose window starts inside the image. Per row, the
  // fast path writes [vb, ve) and the generic loop the rest.
  const std::int64_t vb = std::min(divup(d.pad_w, d.stride_w), ow);
  for (std::int64_t o_h = o_h0; o_h < o_h1; ++o_h) {
    float* orow = out + o_h * ow;
    const std::int64_t ve = max_interior_row(d, rows, row0, o_h, vb, orow);
    for (std::int64_t o_w = 0; o_w < vb; ++o_w) {
      orow[o_w] = pool_window(d, rows, row0, o_h, o_w);
    }
    for (std::int64_t o_w = ve; o_w < ow; ++o_w) {
      orow[o_w] = pool_window(d, rows, row0, o_h, o_w);
    }
  }
}

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
