#include "exec/op_plans.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "conv/pointwise.h"
#include "exec/epilogue.h"
#include "linalg/gemm.h"

namespace tdc {

namespace {

// Every plan here parallelizes over channels (each channel's outputs are
// written by exactly one chunk), so results are bit-identical at any thread
// count and the loops stay trivially race-free.

// ---------------------------------------------------------------------------
// Window pooling, through detail::pool_rows — the code a fused step's pooled
// epilogue runs (exec/epilogue.h).
class PoolPlanImpl final : public OpPlan {
 public:
  explicit PoolPlanImpl(const PoolDescriptor& d)
      : OpPlan({d.in}, OpShape{d.in.c, d.out_h(), d.out_w()}), d_(d) {}

  std::int64_t workspace_bytes() const override { return 0; }

 protected:
  void run_node(std::span<const float* const> inputs, float* y,
                std::span<float> /*workspace*/) const override {
    const float* x = inputs[0];
    const std::int64_t oh = output_shape().h;
    const std::int64_t ow = output_shape().w;
    parallel_for(0, d_.in.c, 1, [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t c = c0; c < c1; ++c) {
        detail::pool_rows(d_, x + c * d_.in.h * d_.in.w, 0, 0, oh,
                          y + c * oh * ow);
      }
    });
  }

 private:
  PoolDescriptor d_;
};

// ---------------------------------------------------------------------------
// Elementwise family: ReLU / folded BN / N-ary add, with an optional fused
// ReLU on the BN and add variants. Every pass is detail::eltwise_row, the
// arithmetic fused graph steps apply as conv epilogues (exec/epilogue.h).
enum class EltKind { kRelu, kBatchNorm, kAdd };

class EltwisePlanImpl final : public OpPlan {
 public:
  EltwisePlanImpl(const OpShape& shape, std::int64_t num_inputs, EltKind kind,
                  Tensor scale, Tensor shift, bool fuse_relu)
      : OpPlan(std::vector<OpShape>(static_cast<std::size_t>(num_inputs),
                                    shape),
               shape),
        kind_(kind),
        scale_(std::move(scale)),
        shift_(std::move(shift)),
        fuse_relu_(fuse_relu) {}

  std::int64_t workspace_bytes() const override { return 0; }

 protected:
  void run_node(std::span<const float* const> inputs, float* y,
                std::span<float> /*workspace*/) const override {
    const OpShape& s = output_shape();
    const std::int64_t plane = s.h * s.w;
    parallel_for(0, s.c, 1, [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t c = c0; c < c1; ++c) {
        float* out = y + c * plane;
        const float* x = inputs[0] + c * plane;
        switch (kind_) {
          case EltKind::kRelu:
            detail::eltwise_row(x, out, plane, false, 0.0f, 0.0f, nullptr,
                                true);
            break;
          case EltKind::kBatchNorm:
            detail::eltwise_row(x, out, plane, true, scale_[c], shift_[c],
                                nullptr, fuse_relu_);
            break;
          case EltKind::kAdd: {
            // x0 + x1, then each further input in order; the ReLU rides on
            // the last sum.
            const std::size_t n = inputs.size();
            detail::eltwise_row(x, out, plane, false, 0.0f, 0.0f,
                                inputs[1] + c * plane, fuse_relu_ && n == 2);
            for (std::size_t k = 2; k < n; ++k) {
              detail::eltwise_row(out, out, plane, false, 0.0f, 0.0f,
                                  inputs[k] + c * plane,
                                  fuse_relu_ && k + 1 == n);
            }
            break;
          }
        }
      }
    });
  }

 private:
  EltKind kind_;
  Tensor scale_;  ///< [C] (kBatchNorm)
  Tensor shift_;  ///< [C] (kBatchNorm)
  bool fuse_relu_;
};

// ---------------------------------------------------------------------------
// Channel concatenation.
class ConcatPlanImpl final : public OpPlan {
 public:
  explicit ConcatPlanImpl(const std::vector<OpShape>& inputs)
      : OpPlan(inputs, concat_shape(inputs)) {}

  std::int64_t workspace_bytes() const override { return 0; }

  static OpShape concat_shape(const std::vector<OpShape>& inputs) {
    OpShape out = inputs.front();
    for (std::size_t i = 1; i < inputs.size(); ++i) {
      out.c += inputs[i].c;
    }
    return out;
  }

 protected:
  void run_node(std::span<const float* const> inputs, float* y,
                std::span<float> /*workspace*/) const override {
    const std::int64_t plane = output_shape().h * output_shape().w;
    std::int64_t offset = 0;
    for (std::int64_t i = 0; i < num_inputs(); ++i) {
      const std::int64_t floats = input_shape(i).floats();
      const float* src = inputs[static_cast<std::size_t>(i)];
      float* dst = y + offset * plane;
      parallel_for(0, floats, 1 << 14, [&](std::int64_t b, std::int64_t e) {
        std::copy(src + b, src + e, dst + b);
      });
      offset += input_shape(i).c;
    }
  }
};

// ---------------------------------------------------------------------------
// Fully-connected head on the prepacked GEMM.
class FullyConnectedPlanImpl final : public OpPlan {
 public:
  FullyConnectedPlanImpl(const Tensor& weight, Tensor bias)
      : OpPlan({OpShape{weight.dim(1), 1, 1}}, OpShape{weight.dim(0), 1, 1}),
        packed_(pack_gemm_a(weight.dim(0), weight.dim(1), weight.raw(),
                            weight.dim(1), 1)),
        bias_(std::move(bias)) {}

  std::int64_t workspace_bytes() const override { return 0; }

 protected:
  void run_node(std::span<const float* const> inputs, float* y,
                std::span<float> /*workspace*/) const override {
    // y[out, 1] = W[out, in] · x[in, 1].
    pointwise_conv_prepacked(packed_, inputs[0], 1, y);
    if (!bias_.empty()) {
      const std::int64_t out = output_shape().c;
      for (std::int64_t o = 0; o < out; ++o) {
        y[o] += bias_[o];
      }
    }
  }

 private:
  PackedGemmA packed_;
  Tensor bias_;  ///< [out] or empty
};

void check_channel_vector(const Tensor& t, std::int64_t c, const char* what) {
  TDC_CHECK_MSG(t.rank() == 1 && t.dim(0) == c,
                std::string(what) + " must be a [C] vector matching the " +
                    "plan's channel count");
}

}  // namespace

std::unique_ptr<OpPlan> compile_pool_plan(const PoolDescriptor& desc) {
  TDC_CHECK_MSG(desc.valid(), "invalid pooling geometry");
  return std::make_unique<PoolPlanImpl>(desc);
}

std::unique_ptr<OpPlan> compile_global_pool_plan(const OpShape& in,
                                                 PoolKind kind) {
  PoolDescriptor d;
  d.in = in;
  d.window_h = in.h;
  d.window_w = in.w;
  d.stride_h = in.h;
  d.stride_w = in.w;
  d.kind = kind;
  TDC_CHECK_MSG(d.valid(), "invalid global-pool geometry");
  return std::make_unique<PoolPlanImpl>(d);
}

std::unique_ptr<OpPlan> compile_relu_plan(const OpShape& shape) {
  return std::make_unique<EltwisePlanImpl>(shape, 1, EltKind::kRelu, Tensor(),
                                           Tensor(), false);
}

std::unique_ptr<OpPlan> compile_batchnorm_plan(const OpShape& shape,
                                               const Tensor& scale,
                                               const Tensor& shift,
                                               bool fuse_relu) {
  check_channel_vector(scale, shape.c, "batchnorm scale");
  check_channel_vector(shift, shape.c, "batchnorm shift");
  return std::make_unique<EltwisePlanImpl>(shape, 1, EltKind::kBatchNorm,
                                           scale, shift, fuse_relu);
}

FoldedBatchNorm fold_batchnorm(const Tensor& gamma, const Tensor& beta,
                               const Tensor& mean, const Tensor& var,
                               double eps) {
  const std::int64_t c = gamma.dim(0);
  check_channel_vector(gamma, c, "gamma");
  check_channel_vector(beta, c, "beta");
  check_channel_vector(mean, c, "running mean");
  check_channel_vector(var, c, "running var");
  FoldedBatchNorm out{Tensor({c}), Tensor({c})};
  for (std::int64_t i = 0; i < c; ++i) {
    const double inv_std = 1.0 / std::sqrt(static_cast<double>(var[i]) + eps);
    const double scale = static_cast<double>(gamma[i]) * inv_std;
    out.scale[i] = static_cast<float>(scale);
    out.shift[i] = static_cast<float>(static_cast<double>(beta[i]) -
                                      static_cast<double>(mean[i]) * scale);
  }
  return out;
}

std::unique_ptr<OpPlan> compile_add_plan(const OpShape& shape,
                                         std::int64_t num_inputs,
                                         bool fuse_relu) {
  TDC_CHECK_MSG(num_inputs >= 2, "an add plan joins at least two inputs");
  return std::make_unique<EltwisePlanImpl>(shape, num_inputs, EltKind::kAdd,
                                           Tensor(), Tensor(), fuse_relu);
}

std::unique_ptr<OpPlan> compile_concat_plan(
    const std::vector<OpShape>& inputs) {
  TDC_CHECK_MSG(inputs.size() >= 2, "a concat plan joins at least two inputs");
  for (const OpShape& in : inputs) {
    TDC_CHECK_MSG(in.h == inputs.front().h && in.w == inputs.front().w,
                  "concat inputs must share the spatial plane");
  }
  return std::make_unique<ConcatPlanImpl>(inputs);
}

std::unique_ptr<OpPlan> compile_fc_plan(const Tensor& weight,
                                        const Tensor& bias) {
  TDC_CHECK_MSG(weight.rank() == 2, "fc weight must be [out, in]");
  if (!bias.empty()) {
    check_channel_vector(bias, weight.dim(0), "fc bias");
  }
  return std::make_unique<FullyConnectedPlanImpl>(weight, bias);
}

}  // namespace tdc
