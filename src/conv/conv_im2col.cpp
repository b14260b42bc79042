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
//
// Stride-1 convolutions whose output is as wide as the input ("same"
// width: every 3×3/pad-1 core, and the fused Tucker band slabs) take a
// shortcut: consecutive output rows read consecutive input rows, so the
// whole patch row is the plane shifted by (r − pad_h)·W + (s − pad_w). It
// is one flat copy over the valid output rows, after which the pad value
// goes over the columns that wrapped around from a neighbouring row and
// over the rows outside the image.
//
// The walk covers output rows [ob, oe) only: each patch row then holds
// (oe − ob)·OW columns, the columns of those rows in the full matrix.
template <typename T>
void im2col_walk(const T* x, const ConvShape& shape, std::int64_t ob,
                 std::int64_t oe, T* cols, T pad_value) {
  const std::int64_t oh = oe - ob;
  const std::int64_t ow = shape.out_w();
  const std::int64_t sw = shape.stride_w;
  const bool shifted_copy =
      shape.stride_h == 1 && sw == 1 && ow == shape.w;

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
      if (shifted_copy) {
        // Valid output rows: 0 ≤ o_h − pad_h + r < H; none when no column
        // is valid. Counted from ob, the walk's first row.
        const std::int64_t h0 = std::clamp(shape.pad_h - r - ob,
                                           std::int64_t{0}, oh);
        const std::int64_t h1 =
            w0 < w1 ? std::clamp(shape.h + shape.pad_h - r - ob, h0, oh) : h0;
        if (h0 < h1) {
          // From the first valid element of row h0 to the last valid one of
          // row h1 − 1; both ends read inside the plane.
          const std::int64_t shift = (ob + r - shape.pad_h) * shape.w + off;
          const std::int64_t begin = h0 * ow + w0;
          const std::int64_t end = (h1 - 1) * ow + w1;
          std::copy(plane + (begin + shift), plane + (end + shift),
                    out_row + begin);
          for (std::int64_t o_h = h0; o_h < h1; ++o_h) {
            T* out = out_row + o_h * ow;
            std::fill(out, out + w0, pad_value);
            std::fill(out + w1, out + ow, pad_value);
          }
        }
        std::fill(out_row, out_row + h0 * ow, pad_value);
        std::fill(out_row + h1 * ow, out_row + oh * ow, pad_value);
        continue;
      }
      for (std::int64_t o_h = 0; o_h < oh; ++o_h) {
        const std::int64_t ih = (ob + o_h) * shape.stride_h - shape.pad_h + r;
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
  im2col_walk(x, shape, 0, shape.out_h(), cols, 0.0f);
}

void im2col_rows_into(const float* x, const ConvShape& shape,
                      std::int64_t oh_begin, std::int64_t oh_end,
                      float* cols) {
  im2col_walk(x, shape, oh_begin, oh_end, cols, 0.0f);
}

void im2col_u8_into(const std::uint8_t* x, const ConvShape& shape,
                    std::uint8_t* cols, std::uint8_t pad_value) {
  im2col_walk(x, shape, 0, shape.out_h(), cols, pad_value);
}

void im2col_u8_rows_into(const std::uint8_t* x, const ConvShape& shape,
                         std::int64_t oh_begin, std::int64_t oh_end,
                         std::uint8_t* cols, std::uint8_t pad_value) {
  im2col_walk(x, shape, oh_begin, oh_end, cols, pad_value);
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
