// Convolution building blocks (single image, CHW activations, CNRS kernels).
//
// The exact reference convolution here is the correctness oracle for every
// other kernel in the repository (including the TDC core kernel in
// src/core); the im2col helpers and the weight-matrix reshape are shared by
// the plans. The baselines the paper compares against — im2col + GEMM
// (cuDNN IMPLICIT_GEMM), Winograd F(2×2, 3×3) and FFT — run as compiled
// plans: compile_conv_plan in exec/conv_plan.h.
//
// All functions compute cross-correlation (the CNN convention):
//   Y(n, oh, ow) = Σ_{c,r,s} X(c, oh·stride − pad + r, ow·stride − pad + s) · K(c,n,r,s)
#pragma once

#include "conv/conv_shape.h"
#include "tensor/tensor.h"

namespace tdc {

/// Identifiers for dispatching a core-convolution implementation.
///  * kReference/kIm2col/kWinograd/kFft — the library baselines;
///  * kTdcCore — the paper's core kernel scheme (functional executor);
///  * kAuto    — resolved at plan-compile time by the selector in
///               exec/conv_plan.h, which consults conv_algo_supports and the
///               gpusim/library cost models.
enum class ConvAlgo { kReference, kIm2col, kWinograd, kFft, kTdcCore, kAuto };

const char* conv_algo_name(ConvAlgo algo);

/// Exact direct convolution; the correctness oracle. X is [C, H, W],
/// kernel is CNRS [C, N, R, S]; returns [N, H', W'].
Tensor conv2d_reference(const Tensor& x, const Tensor& kernel_cnrs,
                        const ConvShape& shape);

/// Reference convolution into a caller-provided [N, H', W'] buffer (every
/// element is written). Operands are not shape-checked; used by the plan
/// layer after it has validated them once at compile time.
void conv2d_reference_into(const float* x, const Tensor& kernel_cnrs,
                           const ConvShape& shape, float* y);

/// The [N, C·R·S] weight-matrix reshape shared by the im2col path and the
/// fused Tucker pipeline: row n holds kernel(., n, ., .) flattened in
/// im2col's (c, r, s) patch-row order.
Tensor conv_weight_matrix(const Tensor& kernel_cnrs, const ConvShape& shape);

/// Whether `algo` supports `shape` (Winograd: 3×3 stride-1; FFT: stride-1;
/// reference/im2col/TDC-core/auto: any valid shape).
bool conv_algo_supports(ConvAlgo algo, const ConvShape& shape);

/// Zero-pad a CHW image by (pad_h, pad_w) on each border.
Tensor pad_chw(const Tensor& x, std::int64_t pad_h, std::int64_t pad_w);

/// im2col buffer: [C·R·S, H'·W'] patch matrix for the given problem.
Tensor im2col(const Tensor& x, const ConvShape& shape);

/// im2col into a caller-provided [C·R·S, H'·W'] buffer (every element is
/// written); `x` is a flat [C, H, W] image.
///
/// Both element types share one walk: each (c, r, s) patch row computes
/// once the output-column range [w0, w1) whose taps fall inside the image,
/// copies it as one span at stride 1 (a branch-free strided gather
/// otherwise), and fills the columns on either side and the rows outside
/// the image with the pad value. The bytes equal a per-element
/// bounds-checked select.
void im2col_into(const float* x, const ConvShape& shape, float* cols);

/// The columns of output rows [oh_begin, oh_end) of im2col_into's matrix,
/// as a [C·R·S, (oh_end − oh_begin)·W'] buffer: the patch matrix of one
/// output-row band, bitwise those columns of the full one.
void im2col_rows_into(const float* x, const ConvShape& shape,
                      std::int64_t oh_begin, std::int64_t oh_end,
                      float* cols);

/// Quantized-domain im2col for the int8 serving path: same patch-row
/// flattening as im2col_into over a uint8 [C, H, W] image, except border
/// taps are filled with `pad_value` — the activation zero point, i.e. the
/// quantized encoding of fp32 0.0 — so the padding of a quantized plan
/// dequantizes to exactly the zeros of the fp32 plan.
void im2col_u8_into(const std::uint8_t* x, const ConvShape& shape,
                    std::uint8_t* cols, std::uint8_t pad_value);

/// im2col_u8_into over output rows [oh_begin, oh_end), like
/// im2col_rows_into.
void im2col_u8_rows_into(const std::uint8_t* x, const ConvShape& shape,
                         std::int64_t oh_begin, std::int64_t oh_end,
                         std::uint8_t* cols, std::uint8_t pad_value);

}  // namespace tdc
