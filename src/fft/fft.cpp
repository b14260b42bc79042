#include "fft/fft.h"

#include <cmath>
#include <numbers>

#include "common/alloc_guard.h"
#include "common/check.h"

namespace tdc {

namespace {

bool is_pow2(std::int64_t n) { return n >= 1 && (n & (n - 1)) == 0; }

// Shared radix-2 core over either precision. The twiddle recurrence runs in
// double regardless of T so the float transform only pays single precision
// in the butterflies, not in accumulated twiddle drift.
template <class T>
void fft_core(std::complex<T>* x, std::int64_t n, bool inverse) {
  TDC_CHECK_MSG(is_pow2(n), "fft length must be a power of two");
  if (n == 1) {
    return;
  }

  // Bit-reversal permutation.
  for (std::int64_t i = 1, j = 0; i < n; ++i) {
    std::int64_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(x[i], x[j]);
    }
  }

  for (std::int64_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::int64_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::int64_t j = 0; j < len / 2; ++j) {
        const std::complex<T> wt(static_cast<T>(w.real()),
                                 static_cast<T>(w.imag()));
        const auto u = x[i + j];
        const auto v = x[i + j + len / 2] * wt;
        x[i + j] = u + v;
        x[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const T inv_n = static_cast<T>(1.0 / static_cast<double>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      x[i] *= inv_n;
    }
  }
}

template <class T>
void fft2d_core(std::complex<T>* x, std::int64_t rows, std::int64_t cols,
                bool inverse) {
  TDC_CHECK_MSG(is_pow2(rows) && is_pow2(cols),
                "fft2d dims must be powers of two");

  // Transform rows (contiguous, in place).
  for (std::int64_t r = 0; r < rows; ++r) {
    fft_core(x + r * cols, cols, inverse);
  }

  // Transform columns through a gather/scatter buffer. Thread-local with
  // grow-only capacity: after first-touch warm-up the FFT plan's run path
  // performs no heap allocation (the run-path DenyAllocGuard invariant).
  thread_local std::vector<std::complex<T>> buf;
  {
    AllowAllocScope warmup;
    // Grow-only warm-up of the thread-local column buffer.
    buf.resize(static_cast<std::size_t>(rows));
  }
  for (std::int64_t c = 0; c < cols; ++c) {
    for (std::int64_t r = 0; r < rows; ++r) {
      buf[static_cast<std::size_t>(r)] = x[r * cols + c];
    }
    fft_core(buf.data(), rows, inverse);
    for (std::int64_t r = 0; r < rows; ++r) {
      x[r * cols + c] = buf[static_cast<std::size_t>(r)];
    }
  }
}

}  // namespace

std::int64_t next_pow2(std::int64_t n) {
  TDC_CHECK(n >= 1);
  std::int64_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

void fft_inplace(std::vector<std::complex<double>>& x, bool inverse) {
  fft_core(x.data(), static_cast<std::int64_t>(x.size()), inverse);
}

void fft2d_inplace(std::vector<std::complex<double>>& x, std::int64_t rows,
                   std::int64_t cols, bool inverse) {
  TDC_CHECK(static_cast<std::int64_t>(x.size()) == rows * cols);
  fft2d_core(x.data(), rows, cols, inverse);
}

void fft_inplace(std::complex<float>* x, std::int64_t n, bool inverse) {
  fft_core(x, n, inverse);
}

void fft2d_inplace(std::complex<float>* x, std::int64_t rows,
                   std::int64_t cols, bool inverse) {
  fft2d_core(x, rows, cols, inverse);
}

}  // namespace tdc
