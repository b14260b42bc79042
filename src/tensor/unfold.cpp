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
  for (std::int64_t o = 0; o < s.outer; ++o) {
    for (std::int64_t r = 0; r < s.extent; ++r) {
      std::copy_n(src + (o * s.extent + r) * s.inner, s.inner,
                  dst + (r * s.outer + o) * s.inner);
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
  Tensor out(out_dims);

  // With row-major storage, T is [outer, in_extent, inner].
  const ModeSplit split = split_at(t.dims(), mode);
  const std::int64_t outer = split.outer;
  const std::int64_t inner = split.inner;

  // Each outer slab is one GEMM: Out[o] = A^T · T[o] with T[o] the
  // [in_extent, inner] slice. The transpose and the slab views are stride
  // choices, so the packed engine kernel (parallel, bit-deterministic
  // across thread counts) does all the work — at full network width this
  // contraction sits on the cold-compile path of every Tucker plan.
  const float* src = t.raw();
  float* dst = out.raw();
  for (std::int64_t o = 0; o < outer; ++o) {
    gemm_strided(out_extent, inner, in_extent,
                 a.raw(), /*a_rs=*/1, /*a_cs=*/out_extent,
                 src + o * in_extent * inner, /*b_rs=*/inner, /*b_cs=*/1,
                 dst + o * out_extent * inner, /*ldc=*/inner);
  }
  return out;
}

}  // namespace tdc
