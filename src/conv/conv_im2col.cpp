#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "conv/conv.h"

namespace tdc {

namespace {

// One patch-matrix walk for both element types. For each (c, r, s) row the
// input columns it reads are iw = o_w·stride_w + (s − pad_w), which lie
// inside the image exactly for o_w in [w0, w1); that range is computed once
// per row, so the inner loop is a plain span copy (stride 1) or a
// branch-free strided gather, and `pad_value` fills the borders on either
// side and the rows whose ih falls outside the image.
template <typename T>
void im2col_walk(const T* x, const ConvShape& shape, T* cols, T pad_value) {
  const std::int64_t oh = shape.out_h();
  const std::int64_t ow = shape.out_w();
  const std::int64_t sw = shape.stride_w;

  // Each (c, r, s) patch row is independent; parallelize over the flattened
  // row index.
  parallel_for(0, shape.c * shape.r * shape.s, 1,
               [&](std::int64_t row0, std::int64_t row1) {
    for (std::int64_t row = row0; row < row1; ++row) {
      const std::int64_t c = row / (shape.r * shape.s);
      const std::int64_t r = (row / shape.s) % shape.r;
      const std::int64_t s = row % shape.s;
      const std::int64_t off = s - shape.pad_w;
      // 0 ≤ o_w·sw + off < w  ⇔  o_w ∈ [⌈−off/sw⌉, ⌈(w − off)/sw⌉).
      const std::int64_t w0 =
          std::min(off >= 0 ? 0 : detail::divup(-off, sw), ow);
      const std::int64_t w1 = std::clamp(
          off >= shape.w ? 0 : detail::divup(shape.w - off, sw), w0, ow);
      const T* plane = x + c * shape.h * shape.w;
      T* out_row = cols + row * oh * ow;
      for (std::int64_t o_h = 0; o_h < oh; ++o_h) {
        const std::int64_t ih = o_h * shape.stride_h - shape.pad_h + r;
        T* out = out_row + o_h * ow;
        if (ih < 0 || ih >= shape.h) {
          std::fill(out, out + ow, pad_value);
          continue;
        }
        std::fill(out, out + w0, pad_value);
        const T* in = plane + ih * shape.w;
        if (sw == 1 && w0 < w1) {
          std::copy(in + (w0 + off), in + (w1 + off), out + w0);
        } else if (sw == 2) {
          // A constant stride lets the compiler vectorize the gather with
          // loads and shuffles (the 7×7/2 stem, strided cores).
          for (std::int64_t o_w = w0; o_w < w1; ++o_w) {
            out[o_w] = in[o_w * 2 + off];
          }
        } else {
          for (std::int64_t o_w = w0; o_w < w1; ++o_w) {
            out[o_w] = in[o_w * sw + off];
          }
        }
        std::fill(out + w1, out + ow, pad_value);
      }
    }
  });
}

}  // namespace

void im2col_into(const float* x, const ConvShape& shape, float* cols) {
  im2col_walk(x, shape, cols, 0.0f);
}

void im2col_u8_into(const std::uint8_t* x, const ConvShape& shape,
                    std::uint8_t* cols, std::uint8_t pad_value) {
  im2col_walk(x, shape, cols, pad_value);
}

Tensor im2col(const Tensor& x, const ConvShape& shape) {
  TDC_CHECK_MSG(x.rank() == 3, "im2col expects [C,H,W]");
  Tensor cols({shape.c * shape.r * shape.s, shape.out_h() * shape.out_w()});
  im2col_into(x.raw(), shape, cols.raw());
  return cols;
}

Tensor conv_weight_matrix(const Tensor& kernel_cnrs, const ConvShape& shape) {
  TDC_CHECK_MSG(kernel_cnrs.rank() == 4, "kernel must be [C,N,R,S]");
  TDC_CHECK_MSG(kernel_cnrs.dim(0) == shape.c && kernel_cnrs.dim(1) == shape.n &&
                    kernel_cnrs.dim(2) == shape.r && kernel_cnrs.dim(3) == shape.s,
                "kernel tensor does not match shape descriptor");
  // Weight matrix A: [N, C·R·S] with the same (c, r, s) row flattening that
  // im2col uses for its patch rows.
  Tensor weights({shape.n, shape.c * shape.r * shape.s});
  for (std::int64_t n = 0; n < shape.n; ++n) {
    for (std::int64_t c = 0; c < shape.c; ++c) {
      for (std::int64_t r = 0; r < shape.r; ++r) {
        for (std::int64_t s = 0; s < shape.s; ++s) {
          weights(n, (c * shape.r + r) * shape.s + s) = kernel_cnrs(c, n, r, s);
        }
      }
    }
  }
  return weights;
}

}  // namespace tdc
