#include "tensor/unfold.h"

#include <algorithm>

#include "common/check.h"
#include "linalg/gemm.h"

namespace tdc {

namespace {

// A row-major tensor viewed as [outer, extent, inner] around `mode`: outer
// is the product of the dims before it, inner of the dims after it.
struct ModeSplit {
  std::int64_t outer = 1;
  std::int64_t extent = 1;
  std::int64_t inner = 1;
};

ModeSplit split_at(const std::vector<std::int64_t>& dims, int mode) {
  ModeSplit s;
  for (int i = 0; i < static_cast<int>(dims.size()); ++i) {
    const std::int64_t d = dims[static_cast<std::size_t>(i)];
    if (i < mode) {
      s.outer *= d;
    } else if (i == mode) {
      s.extent = d;
    } else {
      s.inner *= d;
    }
  }
  return s;
}

}  // namespace

// The unfolding is the block permutation [outer, extent, inner] ->
// [extent, outer, inner]: row r gathers, for each outer index o, the
// contiguous inner run T[o, r, :]. Column o·inner + i therefore walks the
// non-mode dimensions in row-major order (the last varies fastest).
Tensor unfold_mode(const Tensor& t, int mode) {
  TDC_CHECK_MSG(mode >= 0 && mode < t.rank(), "unfold mode out of range");
  const ModeSplit s = split_at(t.dims(), mode);
  Tensor out({s.extent, s.outer * s.inner});
  const float* src = t.raw();
  float* dst = out.raw();
  // Destination order in bands of kBand rows: the writes stream along
  // kBand output rows at once while each outer slab's kBand runs are read
  // as one contiguous piece. For a CNRS kernel's mode 1, where inner = R·S
  // is a handful of floats, that is about 30% faster than one row at a
  // time and twice as fast as source order (512×512×3×3, one thread of a
  // 4-vCPU Xeon host).
  constexpr std::int64_t kBand = 8;
  for (std::int64_t r0 = 0; r0 < s.extent; r0 += kBand) {
    const std::int64_t r1 = std::min(r0 + kBand, s.extent);
    for (std::int64_t o = 0; o < s.outer; ++o) {
      for (std::int64_t r = r0; r < r1; ++r) {
        std::copy_n(src + (o * s.extent + r) * s.inner, s.inner,
                    dst + (r * s.outer + o) * s.inner);
      }
    }
  }
  return out;
}

Tensor fold_mode(const Tensor& m, int mode, std::vector<std::int64_t> dims) {
  TDC_CHECK_MSG(m.rank() == 2, "fold_mode expects a matrix");
  TDC_CHECK_MSG(mode >= 0 && mode < static_cast<int>(dims.size()),
                "fold mode out of range");
  const ModeSplit s = split_at(dims, mode);
  TDC_CHECK_MSG(s.outer * s.extent * s.inner == m.numel(),
                "fold_mode element count mismatch");
  TDC_CHECK_MSG(m.dim(0) == s.extent, "fold_mode row count mismatch");
  Tensor out(std::move(dims));
  const float* src = m.raw();
  float* dst = out.raw();
  for (std::int64_t o = 0; o < s.outer; ++o) {
    for (std::int64_t r = 0; r < s.extent; ++r) {
      std::copy_n(src + (r * s.outer + o) * s.inner, s.inner,
                  dst + (o * s.extent + r) * s.inner);
    }
  }
  return out;
}

Tensor mode_product(const Tensor& t, const Tensor& a, int mode) {
  TDC_CHECK_MSG(a.rank() == 2, "mode_product expects a matrix factor");
  TDC_CHECK_MSG(mode >= 0 && mode < t.rank(), "mode out of range");
  TDC_CHECK_MSG(a.dim(0) == t.dim(mode), "mode_product inner-dim mismatch");
  const std::int64_t in_extent = t.dim(mode);
  const std::int64_t out_extent = a.dim(1);

  std::vector<std::int64_t> out_dims = t.dims();
  out_dims[static_cast<std::size_t>(mode)] = out_extent;

  // With row-major storage, T is [outer, in_extent, inner], and the
  // product is one GEMM Out_(mode) = A^T · T_(mode) over the mode
  // unfoldings. For mode 0 (outer = 1) T already is its unfolding and Out
  // is written in place. Otherwise T is unfolded into a copy and the
  // product folded back: one GEMM as wide as outer·inner, instead of one
  // GEMM per outer slab that repacks A every call and, for a CNRS kernel's
  // mode 1 (inner = R·S = 9), fills 9 of each 16-column tile. Each output
  // entry sums the same products in the same K order either way, so the
  // result is bitwise that of the per-slab loop. The transpose of A is a
  // stride choice; the packed engine kernel (parallel, bit-deterministic
  // across thread counts) does all the work — at full network width this
  // contraction sits on the cold-compile path of every Tucker plan.
  const ModeSplit split = split_at(t.dims(), mode);
  const std::int64_t cols = split.outer * split.inner;
  if (split.outer == 1) {
    Tensor out(std::move(out_dims));
    gemm_strided(out_extent, cols, in_extent, a.raw(), /*a_rs=*/1,
                 /*a_cs=*/out_extent, t.raw(), /*b_rs=*/cols, /*b_cs=*/1,
                 out.raw(), /*ldc=*/cols);
    return out;
  }
  const Tensor unfolded = unfold_mode(t, mode);
  Tensor product({out_extent, cols});
  gemm_strided(out_extent, cols, in_extent, a.raw(), /*a_rs=*/1,
               /*a_cs=*/out_extent, unfolded.raw(), /*b_rs=*/cols,
               /*b_cs=*/1, product.raw(), /*ldc=*/cols);
  return fold_mode(product, mode, std::move(out_dims));
}

}  // namespace tdc
