// Quantized convolution plans: int8 arithmetic inside the standard ConvPlan
// contract. The plan boundary stays fp32 — quantize on entry, int8 GEMM with
// int32 accumulation, dequantize (or requantize, between Tucker stages) on
// exit — so quantized plans drop into the session graph, the arena planner
// and the serving fleet without any interface change.
#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "exec/quantize.h"
#include "tucker/flops.h"

namespace tdc {

namespace {

std::int64_t u8_floats(std::int64_t bytes) { return (bytes + 3) / 4; }

bool is_pointwise(const ConvShape& shape) {
  return shape.r == 1 && shape.s == 1 && shape.stride_h == 1 &&
         shape.stride_w == 1 && shape.pad_h == 0 && shape.pad_w == 0;
}

/// Per-channel dequantization multipliers of one int8 GEMM stage, composed
/// in double so the single float narrowing happens once, at compile time.
std::vector<float> stage_multipliers(const std::vector<float>& w_scales,
                                     double in_scale, double out_scale) {
  std::vector<float> m(w_scales.size());
  for (std::size_t i = 0; i < w_scales.size(); ++i) {
    m[i] = static_cast<float>(in_scale * static_cast<double>(w_scales[i]) /
                              out_scale);
  }
  return m;
}

/// The final fp32 dequantize of an int8 plan, y = acc · multiplier per row,
/// with the fused step's epilogue applied to each row right after it, while
/// the row is still in cache: one sweep from the int32 accumulator to y.
/// Null `epilogue` is plain dequantize_f32.
void dequantize_out(const std::int32_t* acc, std::int64_t m, std::int64_t n,
                    const float* multiplier, float* y,
                    const ConvEpilogue* epilogue) {
  if (epilogue == nullptr) {
    dequantize_f32(acc, m, n, n, multiplier, y, n);
    return;
  }
  parallel_for(0, m, 8, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      // One row; inside this region the call runs inline.
      dequantize_f32(acc + i * n, 1, n, n, multiplier + i, y + i * n, n);
      epilogue->apply(y, i, i * n, n);
    }
  });
}

// ---------------------------------------------------------------------------
// Dense quantized im2col: quantize X → (optional) u8 patch matrix → one int8
// GEMM against the prepacked per-channel-quantized weight matrix → fp32
// dequantize. Pointwise layers skip the patch copy like the fp32 plan, but
// still pay the input quantization, so workspace is never zero.
class QuantizedConvPlanImpl final : public ConvPlan {
 public:
  QuantizedConvPlanImpl(const ConvShape& shape, const Tensor& kernel_cnrs,
                        const LayerQuant& quant)
      : ConvPlan(shape, ConvAlgo::kIm2col),
        input_(quant.input),
        pointwise_(is_pointwise(shape)) {
    const std::int64_t crs = shape.c * shape.r * shape.s;
    const Tensor weights = conv_weight_matrix(kernel_cnrs, shape);
    const QuantizedRows qw =
        quantize_rows_s8(shape.n, crs, weights.raw(), crs, 1);
    packed_weights_ = pack_gemm_a_s8(shape.n, crs, qw.values.data(), crs, 1);
    multipliers_ = stage_multipliers(
        qw.scales, static_cast<double>(input_.scale), 1.0);
  }

  bool quantized() const override { return true; }

  std::int64_t workspace_bytes() const override {
    const std::int64_t ohw = shape_.out_h() * shape_.out_w();
    const std::int64_t chw = shape_.c * shape_.h * shape_.w;
    std::int64_t floats = shape_.n * ohw + u8_floats(chw);  // acc + xq
    if (!pointwise_) {
      floats += u8_floats(shape_.c * shape_.r * shape_.s * ohw);  // patches
    }
    return floats * static_cast<std::int64_t>(sizeof(float));
  }

 protected:
  void run_image(const float* x, float* y,
                 std::span<float> workspace) const override {
    run(x, y, workspace, nullptr);
  }

  void run_image_epilogue(const float* x, float* y,
                          std::span<float> workspace,
                          const ConvEpilogue& epilogue) const override {
    if (epilogue.pool != nullptr) {
      run_pooled_s8(x, y, workspace, epilogue);
      return;
    }
    run(x, y, workspace, &epilogue);
  }

  // Pooled: the quantized image, then one band slot — the slot's row
  // buffer, the band's int32 accumulator and its u8 patch matrix. The bands
  // run serially and each pass splits over the region (int8 lanes serve at
  // width 1). Pointwise plans do not pool.
  std::int64_t pooled_workspace_bytes(
      const PoolDescriptor& pool) const override {
    if (pointwise_) {
      return 0;
    }
    return (xq_floats() + slot_floats(pool)) *
           static_cast<std::int64_t>(sizeof(float));
  }

 private:
  void run_pooled_s8(const float* x, float* y, std::span<float> workspace,
                     const ConvEpilogue& epilogue) const {
    const PoolDescriptor& pool = *epilogue.pool;
    auto* xq = reinterpret_cast<std::uint8_t*>(workspace.data());
    quantize_u8(x, shape_.c * shape_.h * shape_.w, input_, xq);
    const std::int64_t acc_floats =
        shape_.n * pooled_band_rows(pool, row_bytes()) * shape_.out_w();
    run_pooled(
        epilogue, y, workspace.subspan(static_cast<std::size_t>(xq_floats())),
        slot_floats(pool), row_bytes(),
        [&](std::int64_t r0, std::int64_t r1, float* scratch, float* dst,
            std::int64_t ld) {
          const std::int64_t cols_n = (r1 - r0) * shape_.out_w();
          auto* acc = reinterpret_cast<std::int32_t*>(scratch);
          auto* cols = reinterpret_cast<std::uint8_t*>(scratch + acc_floats);
          im2col_u8_rows_into(xq, shape_, r0, r1, cols,
                              static_cast<std::uint8_t>(input_.zero_point));
          gemm_prepacked_s8u8(packed_weights_, cols_n, cols, cols_n,
                              input_.zero_point, acc, cols_n);
          dequantize_f32(acc, shape_.n, cols_n, cols_n, multipliers_.data(),
                         dst, ld);
        });
  }

  std::int64_t xq_floats() const {
    return u8_floats(shape_.c * shape_.h * shape_.w);
  }
  // Pooled-band scratch per convolution row: the fp32 row and the int32
  // accumulator row of every output channel, and the u8 patch columns.
  std::int64_t row_bytes() const {
    return (2 * shape_.n * 4 + shape_.c * shape_.r * shape_.s) *
           shape_.out_w();
  }
  std::int64_t slot_floats(const PoolDescriptor& pool) const {
    const std::int64_t rows = pooled_band_rows(pool, row_bytes());
    const std::int64_t ow = shape_.out_w();
    return 2 * shape_.n * rows * ow +
           u8_floats(shape_.c * shape_.r * shape_.s * rows * ow);
  }

  void run(const float* x, float* y, std::span<float> workspace,
           const ConvEpilogue* epilogue) const {
    const std::int64_t ohw = shape_.out_h() * shape_.out_w();
    const std::int64_t chw = shape_.c * shape_.h * shape_.w;
    auto* acc = reinterpret_cast<std::int32_t*>(workspace.data());
    auto* xq = reinterpret_cast<std::uint8_t*>(workspace.data() +
                                               shape_.n * ohw);
    quantize_u8(x, chw, input_, xq);
    const std::uint8_t* b = xq;
    if (!pointwise_) {
      std::uint8_t* cols = xq + chw;
      im2col_u8_into(xq, shape_, cols,
                     static_cast<std::uint8_t>(input_.zero_point));
      b = cols;
    }
    gemm_prepacked_s8u8(packed_weights_, ohw, b, ohw, input_.zero_point, acc,
                        ohw);
    dequantize_out(acc, shape_.n, ohw, multipliers_.data(), y, epilogue);
  }

  PackedGemmAS8 packed_weights_;
  std::vector<float> multipliers_;
  QuantParams input_;
  bool pointwise_;
};

// ---------------------------------------------------------------------------
// Quantized Tucker pipeline: three chained int8 GEMMs (U1ᵀ channel
// compression, the spatial core over a u8 patch matrix, U2 channel
// expansion) with u8 requantized intermediates at the calibrated z1/z2
// parameters and an fp32 final dequantize. One int32 accumulator sized for
// the largest stage is reused by all three.
class QuantizedTuckerPlanImpl final : public ConvPlan {
 public:
  QuantizedTuckerPlanImpl(const ConvShape& shape, const TuckerFactors& factors,
                          const LayerQuant& quant)
      : ConvPlan(shape, ConvAlgo::kIm2col),
        core_(core_conv_shape(shape, factors.ranks())),
        input_(quant.input),
        z1_(quant.z1),
        z2_(quant.z2),
        core_pointwise_(is_pointwise(core_)) {
    const TuckerRanks ranks = factors.ranks();
    // Stage 1: U1ᵀ [D1, C] — u1 is stored [C, D1], so strides swap.
    const QuantizedRows qu1 =
        quantize_rows_s8(ranks.d1, shape.c, factors.u1.raw(), 1, ranks.d1);
    packed_u1_ =
        pack_gemm_a_s8(ranks.d1, shape.c, qu1.values.data(), shape.c, 1);
    m1_ = stage_multipliers(qu1.scales, static_cast<double>(input_.scale),
                            static_cast<double>(z1_.scale));
    // Stage 2: the spatial core as its [D2, D1·R·S] weight matrix.
    const std::int64_t d1rs = ranks.d1 * shape.r * shape.s;
    const Tensor core_w = conv_weight_matrix(factors.core, core_);
    const QuantizedRows qcore =
        quantize_rows_s8(ranks.d2, d1rs, core_w.raw(), d1rs, 1);
    packed_core_ =
        pack_gemm_a_s8(ranks.d2, d1rs, qcore.values.data(), d1rs, 1);
    m2_ = stage_multipliers(qcore.scales, static_cast<double>(z1_.scale),
                            static_cast<double>(z2_.scale));
    // Stage 3: U2 [N, D2], row-major as stored.
    const QuantizedRows qu2 =
        quantize_rows_s8(shape.n, ranks.d2, factors.u2.raw(), ranks.d2, 1);
    packed_u2_ =
        pack_gemm_a_s8(shape.n, ranks.d2, qu2.values.data(), ranks.d2, 1);
    m3_ = stage_multipliers(qu2.scales, static_cast<double>(z2_.scale), 1.0);
  }

  bool quantized() const override { return true; }
  bool decomposed() const override { return true; }

  std::int64_t workspace_bytes() const override {
    return (acc_floats() + u8_floats(u8_bytes())) *
           static_cast<std::int64_t>(sizeof(float));
  }

 protected:
  void run_image(const float* x, float* y,
                 std::span<float> workspace) const override {
    run(x, y, workspace, nullptr);
  }

  void run_image_epilogue(const float* x, float* y,
                          std::span<float> workspace,
                          const ConvEpilogue& epilogue) const override {
    run(x, y, workspace, &epilogue);
  }

 private:
  void run(const float* x, float* y, std::span<float> workspace,
           const ConvEpilogue* epilogue) const {
    const std::int64_t d1 = core_.c;
    const std::int64_t d2 = core_.n;
    const std::int64_t hw = shape_.h * shape_.w;
    const std::int64_t ohw = shape_.out_h() * shape_.out_w();
    const std::int64_t chw = shape_.c * hw;
    auto* acc = reinterpret_cast<std::int32_t*>(workspace.data());
    auto* xq = reinterpret_cast<std::uint8_t*>(workspace.data() +
                                               acc_floats());
    std::uint8_t* z1q = xq + chw;
    std::uint8_t* z2q = z1q + d1 * hw;
    std::uint8_t* colsq = z2q + d2 * ohw;  // unused when the core is 1×1

    quantize_u8(x, chw, input_, xq);
    gemm_prepacked_s8u8(packed_u1_, hw, xq, hw, input_.zero_point, acc, hw);
    requantize_u8(acc, d1, hw, hw, m1_.data(), z1_.zero_point, z1q, hw);

    const std::uint8_t* b2 = z1q;
    if (!core_pointwise_) {
      im2col_u8_into(z1q, core_, colsq,
                     static_cast<std::uint8_t>(z1_.zero_point));
      b2 = colsq;
    }
    gemm_prepacked_s8u8(packed_core_, ohw, b2, ohw, z1_.zero_point, acc, ohw);
    requantize_u8(acc, d2, ohw, ohw, m2_.data(), z2_.zero_point, z2q, ohw);

    gemm_prepacked_s8u8(packed_u2_, ohw, z2q, ohw, z2_.zero_point, acc, ohw);
    dequantize_out(acc, shape_.n, ohw, m3_.data(), y, epilogue);
  }

  std::int64_t acc_floats() const {
    const std::int64_t ohw = shape_.out_h() * shape_.out_w();
    return std::max({core_.c * shape_.h * shape_.w, core_.n * ohw,
                     shape_.n * ohw});
  }
  std::int64_t u8_bytes() const {
    const std::int64_t ohw = shape_.out_h() * shape_.out_w();
    std::int64_t bytes = shape_.c * shape_.h * shape_.w +  // xq
                         core_.c * shape_.h * shape_.w +   // z1q
                         core_.n * ohw;                    // z2q
    if (!core_pointwise_) {
      bytes += core_.c * core_.r * core_.s * ohw;  // core patch matrix
    }
    return bytes;
  }

  ConvShape core_;
  PackedGemmAS8 packed_u1_;
  PackedGemmAS8 packed_core_;
  PackedGemmAS8 packed_u2_;
  std::vector<float> m1_;
  std::vector<float> m2_;
  std::vector<float> m3_;
  QuantParams input_;
  QuantParams z1_;
  QuantParams z2_;
  bool core_pointwise_;
};

}  // namespace

std::unique_ptr<ConvPlan> compile_quantized_conv_plan(
    const ConvShape& shape, const Tensor& kernel_cnrs,
    const LayerQuant& quant) {
  TDC_CHECK_MSG(shape.valid(),
                "invalid convolution shape " + shape.to_string());
  TDC_CHECK_MSG(shape.batch == 1,
                "descriptors are single-image; batching happens in "
                "run_batched");
  TDC_CHECK_MSG(kernel_cnrs.rank() == 4 && kernel_cnrs.dim(0) == shape.c &&
                    kernel_cnrs.dim(1) == shape.n &&
                    kernel_cnrs.dim(2) == shape.r &&
                    kernel_cnrs.dim(3) == shape.s,
                "kernel tensor does not match shape descriptor");
  TDC_CHECK_MSG(quant.quantize && quant.input.scale > 0.0f,
                "quantized plan needs calibrated input parameters");
  return std::make_unique<QuantizedConvPlanImpl>(shape, kernel_cnrs, quant);
}

std::unique_ptr<ConvPlan> compile_quantized_tucker_plan(
    const ConvShape& shape, const TuckerFactors& factors,
    const LayerQuant& quant) {
  TDC_CHECK_MSG(shape.valid(),
                "invalid convolution shape " + shape.to_string());
  TDC_CHECK_MSG(shape.batch == 1,
                "descriptors are single-image; batching happens in "
                "run_batched");
  const TuckerRanks ranks = factors.ranks();
  TDC_CHECK_MSG(factors.u1.rank() == 2 && factors.u1.dim(0) == shape.c &&
                    factors.u2.rank() == 2 && factors.u2.dim(0) == shape.n &&
                    factors.core.rank() == 4 &&
                    factors.core.dim(0) == ranks.d1 &&
                    factors.core.dim(1) == ranks.d2 &&
                    factors.core.dim(2) == shape.r &&
                    factors.core.dim(3) == shape.s,
                "Tucker factors do not match the layer shape");
  TDC_CHECK_MSG(quant.quantize && quant.input.scale > 0.0f &&
                    quant.z1.scale > 0.0f && quant.z2.scale > 0.0f,
                "quantized Tucker plan needs calibrated input/z1/z2 "
                "parameters");
  return std::make_unique<QuantizedTuckerPlanImpl>(shape, factors, quant);
}

}  // namespace tdc
