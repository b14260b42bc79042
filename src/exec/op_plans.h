// Compiled plans for the memory-bound layers between the convolutions.
//
// The end-to-end networks of the paper's Figures 8–9 interleave their
// convolutions with pooling, inference batch-norm, activations, residual
// adds, concats and a fully-connected head. These layers carry almost no
// FLOPs but sit on the serving path, so whole-model execution needs them
// under the same OpPlan contract as the convolutions: compile once, then
// replay allocation-free over caller-owned buffers with bit-reproducible
// results at any thread count.
//
// All factories validate geometry at compile time and return plans whose
// workspace is zero — these operators read their inputs and write their
// output, nothing else.
#pragma once

#include <memory>
#include <vector>

#include "exec/op_plan.h"

namespace tdc {

enum class PoolKind {
  kMax,  ///< window maximum; out-of-bounds taps are ignored
  kAvg,  ///< window mean over the in-bounds taps (count excludes padding)
};

/// Window-pooling geometry over a [C, H, W] input.
struct PoolDescriptor {
  OpShape in;
  std::int64_t window_h = 2;
  std::int64_t window_w = 2;
  std::int64_t stride_h = 2;
  std::int64_t stride_w = 2;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  PoolKind kind = PoolKind::kMax;

  std::int64_t out_h() const {
    return (in.h + 2 * pad_h - window_h) / stride_h + 1;
  }
  std::int64_t out_w() const {
    return (in.w + 2 * pad_w - window_w) / stride_w + 1;
  }
  bool valid() const {
    return in.c >= 1 && in.h >= 1 && in.w >= 1 && window_h >= 1 &&
           window_w >= 1 && stride_h >= 1 && stride_w >= 1 && pad_h >= 0 &&
           pad_w >= 0 && pad_h < window_h && pad_w < window_w &&
           in.h + 2 * pad_h >= window_h && in.w + 2 * pad_w >= window_w;
  }
};

/// Max/avg window pooling: [C, H, W] → [C, OH, OW].
std::unique_ptr<OpPlan> compile_pool_plan(const PoolDescriptor& desc);

/// Global pooling over the full plane: [C, H, W] → [C, 1, 1]. Average
/// pooling accumulates each plane in double, matching the autograd
/// GlobalAvgPool reference bit for bit.
std::unique_ptr<OpPlan> compile_global_pool_plan(const OpShape& in,
                                                 PoolKind kind = PoolKind::kAvg);

/// y = max(x, 0), elementwise.
std::unique_ptr<OpPlan> compile_relu_plan(const OpShape& shape);

/// Inference batch normalization folded to one affine map per channel:
/// y(c, ·) = scale(c) · x(c, ·) + shift(c), optionally clamped at zero when
/// `fuse_relu` (the BN+ReLU pair every conv in the inventories carries).
std::unique_ptr<OpPlan> compile_batchnorm_plan(const OpShape& shape,
                                               const Tensor& scale,
                                               const Tensor& shift,
                                               bool fuse_relu = false);

/// The (scale, shift) folding of trained BN statistics:
///   scale = γ / √(var + ε),  shift = β − mean · scale.
struct FoldedBatchNorm {
  Tensor scale;  ///< [C]
  Tensor shift;  ///< [C]
};
FoldedBatchNorm fold_batchnorm(const Tensor& gamma, const Tensor& beta,
                               const Tensor& mean, const Tensor& var,
                               double eps = 1e-5);

/// y = Σ_i x_i over `num_inputs` same-shape inputs (the residual join),
/// optionally through ReLU (`fuse_relu` — ResNet's add_relu).
std::unique_ptr<OpPlan> compile_add_plan(const OpShape& shape,
                                         std::int64_t num_inputs = 2,
                                         bool fuse_relu = false);

/// Channel concatenation of same-plane inputs: [C_i, H, W]… → [ΣC_i, H, W]
/// (Inception branch joins, DenseNet feature reuse).
std::unique_ptr<OpPlan> compile_concat_plan(const std::vector<OpShape>& inputs);

/// Fully-connected head on the prepacked GEMM: y = W·x (+ b). `weight` is
/// [out, in], packed once at compile time; `bias` is [out] or empty. The
/// plan's input shape is {in, 1, 1} and its output {out, 1, 1} — the
/// flattening from the preceding [C, 1, 1] global pool is the identity.
std::unique_ptr<OpPlan> compile_fc_plan(const Tensor& weight,
                                        const Tensor& bias = Tensor());

}  // namespace tdc
