// Tucker-format convolution pipeline (paper Eqs. 2–4, Figure 3).
//
// The reference form of the three-stage decomposed convolution: a 1×1
// channel reduction (C → D1), the R×S "core" convolution (D1 → D2) and a
// 1×1 channel expansion (D2 → N). Mathematically equivalent to convolving
// with the reconstructed kernel. Serving runs the same pipeline as a
// compiled plan (compile_tucker_plan in exec/conv_plan.h): fused row bands,
// or staged with a selectable core algorithm.
#pragma once

#include "conv/conv.h"
#include "tucker/flops.h"
#include "tucker/tucker.h"

namespace tdc {

/// Runs the Tucker pipeline on x ([C, H, W]) with decomposed factors and the
/// original problem descriptor `shape` (its pad/stride apply to the core
/// stage): stage 1, conv2d_reference on the core, stage 3.
Tensor tucker_conv(const Tensor& x, const TuckerFactors& factors,
                   const ConvShape& shape);

/// Stage-1 output Z1 = X ×_C U1 (Eq. 2), exposed for testing/benchmarks.
Tensor tucker_conv_stage1(const Tensor& x, const TuckerFactors& factors);

/// Stage-3 output Y = Z2 ×_{D2} U2^T (Eq. 4).
Tensor tucker_conv_stage3(const Tensor& z2, const TuckerFactors& factors);

}  // namespace tdc
