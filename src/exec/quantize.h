// Int8 quantization for the serving path: parameter choosers, calibration
// observers, quantized plan compilation, and the env knobs that gate it.
//
// The quantized engine follows the fixed-point deployments of the
// hardware-aware Tucker literature: weights are symmetric signed int8 with
// per-output-channel scales, activations are asymmetric unsigned int8
// restricted to the 7-bit domain [0, 127] (the restriction that makes the
// AVX2 maddubs micro-kernel exact — linalg/gemm_s8.h). A calibration pass
// over synthetic activations picks per-tensor activation parameters, and
// the resulting QuantTable rides into InferenceSession via
// SessionOptions::quant; per layer, the cost provider then prices fp32
// against int8 and the PlanCache keys the two precisions apart.
//
// Accuracy contract: a quantized plan's output differs from its fp32 twin
// by the usual quantization error — bounded per output element by
// (s_x/2)·Σ_k|w| + (s_w/2)·Σ_k|x| + K·s_x·s_w/4 for a single GEMM stage
// (tests/test_quantize.cpp checks exactly this bound); chained Tucker
// stages compound it. Layers whose activations are badly captured by the
// calibration range (heavy outliers under kMinMax) degrade gracefully —
// values clamp, they do not wrap.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/conv_plan.h"
#include "exec/graph_plan.h"
#include "linalg/gemm_s8.h"

namespace tdc {

/// Affine quantization of one activation tensor into the 7-bit domain:
/// q = clamp(rne(x / scale) + zero_point, 0, 127), x̂ = (q − zp) · scale.
struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;  ///< in [0, 127]
};

/// Parameters covering the observed range [lo, hi] (widened to include 0 so
/// fp32 zero — padding, ReLU floors — quantizes exactly to the zero point).
QuantParams choose_quant_params(float lo, float hi);

/// Quantizes `count` floats into the 7-bit activation domain. Deterministic
/// and allocation-free (run-path safe); round-to-nearest-even.
///
/// AVX2 builds run 32 elements per step — mul_ps, clamp, cvtps_epi32 (RNE
/// under the default MXCSR), add the zero point, packs/packus and a lane
/// permute into one 32-byte store — and finish the tail with the scalar
/// std::nearbyintf loop, which generic builds run throughout; the two give
/// identical bytes. Saturation: x/scale is clamped to ±256 in float before
/// the int32 conversion, so inputs beyond the int32 range saturate instead
/// of hitting an undefined cast — large positive values and +inf give 127,
/// large negative values and −inf give 0, and NaN gives 0 on both paths.
/// In-range outputs are unaffected: every |x/scale| ≥ 256 clamps to 0 or
/// 127 for any zero point in [0, 127].
void quantize_u8(const float* x, std::int64_t count, const QuantParams& qp,
                 std::uint8_t* out);

/// Per-row symmetric int8 weight quantization: row i of the [m, k] matrix
/// A(i,kk) = a[i·a_rs + kk·a_cs] maps to q = rne(w / scales[i]) in
/// [-127, 127] with scales[i] = max_k|A(i,·)| / 127 (1.0 for all-zero
/// rows). `values` is the row-major [m, k] quantized matrix.
struct QuantizedRows {
  std::vector<std::int8_t> values;
  std::vector<float> scales;
};
QuantizedRows quantize_rows_s8(std::int64_t m, std::int64_t k, const float* a,
                               std::int64_t a_rs, std::int64_t a_cs);

// ---------------------------------------------------------------------------
// Calibration: range observers over synthetic activations.

/// Running min/max over every observed value.
class MinMaxObserver {
 public:
  void observe(const float* x, std::int64_t count);
  /// Folds in another observer's range: for NaN-free values, afterwards
  /// this observer is exactly what observing the other's values after its
  /// own would have left (per-sample observers merged in sample order).
  void merge(const MinMaxObserver& other);
  bool seen() const { return seen_; }
  float lo() const { return lo_; }
  float hi() const { return hi_; }
  QuantParams params() const { return choose_quant_params(lo_, hi_); }

 private:
  bool seen_ = false;
  float lo_ = 0.0f;
  float hi_ = 0.0f;
};

/// Percentile range over a deterministic stride-subsample: keeps at most
/// `cap` values (thinning by powers of two as observations accumulate) and
/// reads the [1−pct, pct] quantiles, so a handful of outliers cannot blow
/// up the scale the way kMinMax lets them.
///
/// One observation of `count` values keeps every (b·stride)-th value, from
/// the first, where b = max(1, count / 4096) is the observation's base
/// stride and `stride` the observer's current thinning factor. That makes
/// observations replayable: subsample() keeps the base-stride values, and
/// replay() picks from them exactly what observe() would pick from the
/// originals, so per-sample subsamples taken concurrently and replayed in
/// sample order leave the observer bitwise as a serial run does.
class PercentileObserver {
 public:
  explicit PercentileObserver(double pct = 0.999,
                              std::int64_t cap = 1 << 16);
  void observe(const float* x, std::int64_t count);
  /// The base-stride subsample of one observation (what observe() keeps at
  /// stride 1).
  static std::vector<float> subsample(const float* x, std::int64_t count);
  /// Equal to observe(x, count) when `sub` is subsample(x, count).
  void replay(const std::vector<float>& sub);
  QuantParams params() const;

 private:
  // Keeps x[0], x[step], x[2·step], ..., then thins to the cap.
  void take(const float* x, std::int64_t count, std::int64_t step);

  double pct_;
  std::int64_t cap_;
  std::int64_t stride_ = 1;
  std::vector<float> vals_;
};

// ---------------------------------------------------------------------------
// The per-layer table that rides in SessionOptions.

/// Activation quantization of one convolution layer. `input` covers the
/// layer input; `z1`/`z2` cover the Tucker-pipeline intermediates (stage-1
/// output and core output) and are only read when the layer compiles as a
/// decomposed pipeline. Weight scales are not stored here — they derive
/// deterministically from the kernel tensor at plan-compile time.
///
/// For a decomposed layer, `factors` keeps the Tucker decomposition
/// calibration observed Z1/Z2 on, and `factors_kernel` the
/// tensor_fingerprint of the kernel it came from; its ranks are
/// factors->ranks(). InferenceSession::compile hands both to the layer's
/// Tucker compile (fp32 or int8) as PlanRequest::factors, which uses them
/// when kernel and ranks match the layer being compiled, so a cold build
/// decomposes each layer once; on any mismatch the compile decomposes
/// afresh. The factors are a deterministic function of kernel and ranks,
/// so they do not enter quant_fingerprint or any plan key. Null for layers
/// calibration did not decompose.
struct LayerQuant {
  bool quantize = false;
  QuantParams input;
  QuantParams z1;
  QuantParams z2;
  std::shared_ptr<const TuckerFactors> factors;
  std::uint64_t factors_kernel = 0;
};

/// One entry per ModelSpec layer (non-conv layers keep quantize = false).
struct QuantTable {
  std::vector<LayerQuant> layers;
};

/// FNV-1a digest of one layer's quantization parameters — the component
/// PlanCache keys embed so two calibrations of one model never alias.
std::uint64_t quant_fingerprint(const LayerQuant& q);

enum class CalibMethod {
  kMinMax,
  kPercentile,
};

struct CalibrationOptions {
  CalibMethod method = CalibMethod::kMinMax;
  /// Synthetic calibration inputs; 0 selects calibration_samples_default().
  std::int64_t samples = 0;
  /// Quantile captured by kPercentile (per side).
  double percentile = 0.999;
  /// Seed of the synthetic activation stream.
  std::uint64_t seed = 4242;
};

/// Calibrates activation quantization for every convolution layer of
/// `model` on the Tucker model the int8 build approximates. It first
/// decomposes every layer `decisions` marks decomposed at the decided ranks
/// and keeps the factors in the layer's entry. It then compiles a private
/// fp32 session from those factors: staged Tucker layers
/// (TuckerExec::kStaged, im2col core) and im2col dense layers, with no
/// second decomposition. It drives `samples` synthetic inputs through that
/// session, observing each convolution's input range and, for decomposed
/// layers, the Z1/Z2 intermediates the staged plan leaves in its workspace
/// (staged_tucker_layout in exec/conv_plan.h). `decisions` aligns with the
/// model as in InferenceSession::compile (align_decisions in
/// exec/graph_plan.h) and throws the same errors. The returned table
/// aligns with model.layers and marks every convolution quantize = true.
///
/// The build runs across the whole pool (common/parallel.h), even when
/// serving is configured one thread per replica: the decompositions run as
/// parallel_jobs (tucker_decompose_all), and so do the samples, in waves of
/// job_width(). The caller draws every sample input in RNG order; each
/// sample job owns its workspace and activation buffers (each freed after
/// its last consumer) and records its own observations, which the caller
/// merges in sample order (MinMaxObserver::merge,
/// PercentileObserver::replay). The table, factors included, is therefore
/// bitwise the same at every thread count and arena split.
///
/// The calibration session is private: it is compiled outside the
/// PlanCache, so its packed fp32 weights are freed when calibration returns
/// instead of living in the process-wide cache. Offline (allocates freely);
/// a failed allocation surfaces as Error(kResourceExhausted), returns no
/// table and leaves no state behind, so the next calibration is bitwise
/// equal.
QuantTable calibrate_quant(const DeviceSpec& device, const ModelSpec& model,
                           const std::vector<LayerWeights>& weights,
                           const std::vector<LayerDecision>& decisions = {},
                           const CalibrationOptions& options = {});

// ---------------------------------------------------------------------------
// Env knobs (strict-parsed via common/env.h, warn-once on malformed text).

/// TDC_INT8: 0 = int8 off everywhere, 1 = cost provider decides per layer
/// (default), 2 = force int8 for every calibrated layer. Re-read on each
/// call so tests and long-lived processes can flip it; malformed or
/// out-of-range text warns once and falls back to 1.
int int8_mode();

/// TDC_CALIBRATION_SAMPLES: synthetic inputs per calibration when
/// CalibrationOptions.samples is 0 (default 4; accepted range [1, 4096]).
std::int64_t calibration_samples_default();

// ---------------------------------------------------------------------------
// Quantized plan compilation (exec/plan_s8.cpp).

/// Compiles `shape` as a quantized im2col plan: weights per-channel int8
/// (quantize_rows_s8 over the [N, C·R·S] weight matrix), activations
/// quantized on entry with quant.input, int32 accumulation, fp32
/// dequantized output. Pointwise (1×1, unit-stride, unpadded) layers skip
/// the patch copy like the fp32 plan. The returned plan satisfies the full
/// OpPlan contract (allocation-free, deadline-polled, bit-identical across
/// thread counts) and reports quantized() = true.
std::unique_ptr<ConvPlan> compile_quantized_conv_plan(
    const ConvShape& shape, const Tensor& kernel_cnrs,
    const LayerQuant& quant);

/// Compiles the decomposed pipeline as a chain of three int8 GEMM stages
/// (stage-1 pointwise, im2col core, stage-3 pointwise) with u8 requantized
/// intermediates (quant.z1 / quant.z2) and an fp32 final stage.
std::unique_ptr<ConvPlan> compile_quantized_tucker_plan(
    const ConvShape& shape, const TuckerFactors& factors,
    const LayerQuant& quant);

}  // namespace tdc
