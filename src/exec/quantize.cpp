#include "exec/quantize.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <utility>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/plan_cache.h"
#include "tucker/tucker.h"

namespace tdc {

namespace {

std::uint64_t fnv1a_bytes(const void* data, std::size_t bytes,
                          std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

QuantParams choose_quant_params(float lo, float hi) {
  // Widen to include 0 so fp32 zero (padding, ReLU floors) maps exactly to
  // the zero point; degenerate ranges fall back to unit scale.
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  QuantParams qp;
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  if (!(range > 0.0) || !std::isfinite(range)) {
    return qp;  // all-zero (or unseen) tensor: scale 1, zero point 0
  }
  qp.scale = static_cast<float>(range / 127.0);
  const double zp = std::nearbyint(-static_cast<double>(lo) /
                                   static_cast<double>(qp.scale));
  qp.zero_point = static_cast<std::int32_t>(
      std::clamp(zp, 0.0, 127.0));
  return qp;
}

void quantize_u8(const float* x, std::int64_t count, const QuantParams& qp,
                 std::uint8_t* out) {
  const float inv = 1.0f / qp.scale;
  const std::int32_t zp = qp.zero_point;
  // Saturation (quantize.h): x·inv is clamped to ±kSat in float so the
  // int32 conversion is always defined. The scalar clamp keeps p as the
  // first operand of each compare, as _mm256_max_ps/_mm256_min_ps do, so
  // NaN lands on −kSat (→ 0) on both paths.
  constexpr float kSat = 256.0f;
  parallel_for(0, count, 4096, [&](std::int64_t i0, std::int64_t i1) {
    std::int64_t i = i0;
#if defined(__AVX2__)
    const __m256 vinv = _mm256_set1_ps(inv);
    const __m256 vlo = _mm256_set1_ps(-kSat);
    const __m256 vhi = _mm256_set1_ps(kSat);
    const __m256i vzp = _mm256_set1_epi32(zp);
    const __m256i v127 = _mm256_set1_epi8(127);
    // packs/packus interleave the four 8-lane vectors per 128-bit half;
    // this dword permute restores element order.
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    auto lanes = [&](const float* p) {
      __m256 v = _mm256_mul_ps(_mm256_loadu_ps(p), vinv);
      v = _mm256_min_ps(_mm256_max_ps(v, vlo), vhi);
      // cvtps_epi32 rounds to nearest even under the default MXCSR, as
      // std::nearbyintf does under the default fenv.
      return _mm256_add_epi32(_mm256_cvtps_epi32(v), vzp);
    };
    for (; i + 32 <= i1; i += 32) {
      // Lanes hold [−256, 383]: packs_epi32 is exact, packus_epi16 floors
      // at 0, min_epu8 caps at 127.
      const __m256i q01 = _mm256_packs_epi32(lanes(x + i), lanes(x + i + 8));
      const __m256i q23 =
          _mm256_packs_epi32(lanes(x + i + 16), lanes(x + i + 24));
      const __m256i q = _mm256_min_epu8(_mm256_packus_epi16(q01, q23), v127);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                          _mm256_permutevar8x32_epi32(q, order));
    }
#endif
    for (; i < i1; ++i) {
      float p = x[i] * inv;
      p = p > -kSat ? p : -kSat;
      p = p < kSat ? p : kSat;
      const std::int32_t q =
          static_cast<std::int32_t>(std::nearbyintf(p)) + zp;
      out[i] = static_cast<std::uint8_t>(std::clamp(q, 0, 127));
    }
  });
}

QuantizedRows quantize_rows_s8(std::int64_t m, std::int64_t k, const float* a,
                               std::int64_t a_rs, std::int64_t a_cs) {
  TDC_CHECK(m >= 1 && k >= 1);
  QuantizedRows out;
  out.values.resize(static_cast<std::size_t>(m * k));
  out.scales.resize(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    float max_abs = 0.0f;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      max_abs = std::max(max_abs, std::fabs(a[i * a_rs + kk * a_cs]));
    }
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    out.scales[static_cast<std::size_t>(i)] = scale;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float q = std::nearbyintf(a[i * a_rs + kk * a_cs] * inv);
      out.values[static_cast<std::size_t>(i * k + kk)] =
          static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
    }
  }
  return out;
}

void MinMaxObserver::observe(const float* x, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    if (!seen_) {
      lo_ = hi_ = x[i];
      seen_ = true;
    } else {
      lo_ = std::min(lo_, x[i]);
      hi_ = std::max(hi_, x[i]);
    }
  }
}

void MinMaxObserver::merge(const MinMaxObserver& other) {
  if (!other.seen_) {
    return;
  }
  if (!seen_) {
    *this = other;
    return;
  }
  // Both keep the first of equal extremes, so for NaN-free values the
  // merge is bitwise the serial result, signed zeros included.
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
}

PercentileObserver::PercentileObserver(double pct, std::int64_t cap)
    : pct_(pct), cap_(cap) {
  TDC_CHECK(pct > 0.5 && pct <= 1.0 && cap >= 16);
  vals_.reserve(static_cast<std::size_t>(cap));
}

namespace {

// ~4k values per observation.
std::int64_t base_stride(std::int64_t count) {
  return std::max<std::int64_t>(std::int64_t{1}, count / 4096);
}

}  // namespace

void PercentileObserver::observe(const float* x, std::int64_t count) {
  take(x, count, base_stride(count) * stride_);
}

std::vector<float> PercentileObserver::subsample(const float* x,
                                                 std::int64_t count) {
  std::vector<float> sub;
  const std::int64_t step = base_stride(count);
  sub.reserve(static_cast<std::size_t>((count + step - 1) / step));
  for (std::int64_t i = 0; i < count; i += step) {
    sub.push_back(x[i]);
  }
  return sub;
}

void PercentileObserver::replay(const std::vector<float>& sub) {
  // sub[k] is x[k·b], so every stride_-th entry is every (b·stride_)-th
  // original value: the picks of observe(x, count).
  take(sub.data(), static_cast<std::int64_t>(sub.size()), stride_);
}

void PercentileObserver::take(const float* x, std::int64_t count,
                              std::int64_t step) {
  // Deterministic stride subsample, thinned by powers of two whenever the
  // buffer would outgrow its cap. No RNG — two identical calibration runs
  // observe identical samples.
  for (std::int64_t i = 0; i < count; i += step) {
    vals_.push_back(x[i]);
  }
  while (static_cast<std::int64_t>(vals_.size()) > cap_) {
    std::vector<float> thin;
    thin.reserve(vals_.size() / 2 + 1);
    for (std::size_t i = 0; i < vals_.size(); i += 2) {
      thin.push_back(vals_[i]);
    }
    vals_.swap(thin);
    stride_ *= 2;
  }
}

QuantParams PercentileObserver::params() const {
  if (vals_.empty()) {
    return QuantParams{};
  }
  std::vector<float> sorted = vals_;
  std::sort(sorted.begin(), sorted.end());
  const double last = static_cast<double>(sorted.size() - 1);
  const auto at = [&](double q) {
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(std::nearbyint(q * last), 0.0, last));
    return sorted[idx];
  };
  return choose_quant_params(at(1.0 - pct_), at(pct_));
}

std::uint64_t quant_fingerprint(const LayerQuant& q) {
  std::uint64_t h = 14695981039346656037ULL;
  const std::int32_t flag = q.quantize ? 1 : 0;
  h = fnv1a_bytes(&flag, sizeof(flag), h);
  for (const QuantParams* p : {&q.input, &q.z1, &q.z2}) {
    h = fnv1a_bytes(&p->scale, sizeof(p->scale), h);
    h = fnv1a_bytes(&p->zero_point, sizeof(p->zero_point), h);
  }
  return h;
}

int int8_mode() {
  // Re-read per call (cheap getenv) so tests and long-lived processes can
  // flip the knob; env_int rejects malformed text with a one-shot warning.
  return static_cast<int>(env_int("TDC_INT8", 0, 2).value_or(1));
}

std::int64_t calibration_samples_default() {
  return env_int("TDC_CALIBRATION_SAMPLES", 1, 4096).value_or(4);
}

namespace {

/// What one sample contributes to one observed tensor: its min/max
/// (kMinMax) or its base-stride subsample (kPercentile). Sample jobs record
/// concurrently, each into its own.
struct SampleRange {
  void record(CalibMethod method, const float* x, std::int64_t count) {
    if (method == CalibMethod::kMinMax) {
      mm.observe(x, count);
    } else {
      sub = PercentileObserver::subsample(x, count);
    }
  }
  MinMaxObserver mm;
  std::vector<float> sub;
};

/// Method-dispatching range observer. The caller merges the samples'
/// records in sample order, which leaves it exactly as observing every
/// sample in turn.
struct RangeObserver {
  explicit RangeObserver(const CalibrationOptions& options)
      : method(options.method), pct(options.percentile) {}
  void merge(const SampleRange& s) {
    if (method == CalibMethod::kMinMax) {
      mm.merge(s.mm);
    } else {
      pct.replay(s.sub);
    }
  }
  QuantParams params() const {
    return method == CalibMethod::kMinMax ? mm.params() : pct.params();
  }
  CalibMethod method;
  MinMaxObserver mm;
  PercentileObserver pct;
};

// Observation slots of op i: its input, and the Z1/Z2 of a decomposed conv.
constexpr std::size_t kSlotsPerOp = 3;

/// The read-only state every sample job shares.
struct Reference {
  const ModelSpec& model;
  const InferenceSession& session;
  const QuantTable& table;  // factors of the decomposed layers
  CalibMethod method;
  std::vector<std::int64_t> last_use;  // last consuming op (-1: none)
  std::int64_t ws_floats = 0;          // largest op workspace
};

/// One sample's forward through the reference: records every observation
/// into `rec` (kSlotsPerOp per op). Owns its workspace and activation
/// buffers; an activation is freed after its last consumer has run.
void run_sample(const Reference& ref, const Tensor& x,
                std::vector<SampleRange>& rec) {
  if (fault_injected("quantize.calibrate_alloc")) {
    throw std::bad_alloc();  // a sample's buffers could not be allocated
  }
  std::vector<float> workspace(static_cast<std::size_t>(ref.ws_floats));
  const std::int64_t n_ops = ref.session.num_ops();
  std::vector<std::vector<float>> act(static_cast<std::size_t>(n_ops));
  const auto produced = [&](std::int64_t j) {
    return j == InferenceSession::kModelInput
               ? x.raw()
               : act[static_cast<std::size_t>(j)].data();
  };
  std::vector<const float*> inputs;
  for (std::int64_t i = 0; i < n_ops; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    const std::span<const std::int64_t> edges = ref.session.op_inputs(i);
    // The graph walk gathers producer pointers like run_graph does, but
    // from the job's private buffers.
    inputs.clear();
    for (const std::int64_t j : edges) {
      inputs.push_back(produced(j));
    }
    act[ui].resize(static_cast<std::size_t>(
        ref.session.op(i).output_shape().floats()));
    ref.session.op(i).run_inputs(inputs, act[ui].data(), workspace);
    if (ref.model.layers[ui].kind == LayerKind::kConv) {
      const ConvShape& cs = ref.model.layers[ui].conv;
      const std::size_t slot = ui * kSlotsPerOp;
      rec[slot].record(ref.method, inputs[0], cs.c * cs.h * cs.w);
      const TuckerFactors* factors = ref.table.layers[ui].factors.get();
      if (factors != nullptr) {
        // The staged plan left Z1 and Z2 whole in its workspace.
        const StagedTuckerLayout z =
            staged_tucker_layout(cs, factors->ranks());
        rec[slot + 1].record(ref.method, workspace.data(), z.z1_floats);
        rec[slot + 2].record(ref.method, workspace.data() + z.z1_floats,
                             z.z2_floats);
      }
    }
    for (const std::int64_t j : edges) {
      if (j != InferenceSession::kModelInput &&
          ref.last_use[static_cast<std::size_t>(j)] == i) {
        std::vector<float>().swap(act[static_cast<std::size_t>(j)]);
      }
    }
    if (ref.last_use[ui] < 0) {
      std::vector<float>().swap(act[ui]);
    }
  }
}

QuantTable calibrate_impl(const DeviceSpec& device, const ModelSpec& model,
                          const std::vector<LayerWeights>& weights,
                          const std::vector<LayerDecision>& decisions,
                          const CalibrationOptions& options) {
  TDC_CHECK_MSG(weights.size() == model.layers.size(),
                "calibration needs one LayerWeights entry per layer");
  const std::int64_t samples = options.samples > 0
                                   ? options.samples
                                   : calibration_samples_default();
  TDC_CHECK_MSG(samples >= 1, "calibration needs at least one sample");

  const std::vector<const LayerDecision*> dec_for =
      align_decisions(model, decisions);

  // The build's one decomposition per Tucker layer, all layers in one
  // tucker_decompose_all at the decided ranks. The table keeps the factors:
  // the reference session below and the serving compile after calibration
  // both take them instead of decomposing again.
  QuantTable table;
  table.layers.resize(model.layers.size());
  std::vector<std::size_t> tucker_layers;
  std::vector<const Tensor*> tucker_kernels;
  std::vector<TuckerRanks> tucker_ranks;
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const LayerDecision* dec = dec_for[i];
    if (dec != nullptr && dec->decomposed) {
      tucker_layers.push_back(i);
      tucker_kernels.push_back(&weights[i].conv_kernel);
      tucker_ranks.push_back(dec->ranks);
    }
  }
  std::vector<TuckerFactors> decomposed =
      tucker_decompose_all(tucker_kernels, tucker_ranks);
  for (std::size_t k = 0; k < tucker_layers.size(); ++k) {
    LayerQuant& q = table.layers[tucker_layers[k]];
    q.factors =
        std::make_shared<const TuckerFactors>(std::move(decomposed[k]));
    q.factors_kernel = tensor_fingerprint(*tucker_kernels[k]);
  }

  // The fp32 reference is the Tucker model the int8 build approximates,
  // compiled from the table's factors: staged Tucker layers (whose Z1/Z2
  // stay whole in the workspace, staged_tucker_layout) and the
  // deterministic im2col plan everywhere else. No layer is marked quantize
  // yet, so every plan is fp32. It stays out of the PlanCache: its plans are
  // freed with it when calibration returns.
  SessionOptions ref_options;
  ref_options.tucker_exec = TuckerExec::kStaged;
  ref_options.tucker_core_algo = ConvAlgo::kIm2col;
  ref_options.dense_algo = ConvAlgo::kIm2col;
  ref_options.use_plan_cache = false;
  ref_options.quant = &table;
  const InferenceSession session = InferenceSession::compile(
      device, model, weights, decisions, ref_options);

  const std::int64_t n_ops = session.num_ops();
  std::vector<RangeObserver> observers(
      static_cast<std::size_t>(n_ops) * kSlotsPerOp, RangeObserver(options));
  Reference ref{model, session, table, options.method,
                std::vector<std::int64_t>(static_cast<std::size_t>(n_ops), -1)};
  for (std::int64_t i = 0; i < n_ops; ++i) {
    for (const std::int64_t j : session.op_inputs(i)) {
      if (j != InferenceSession::kModelInput) {
        ref.last_use[static_cast<std::size_t>(j)] = i;
      }
    }
    ref.ws_floats =
        std::max(ref.ws_floats, (session.op(i).workspace_bytes() + 3) / 4);
  }

  // Samples run in waves of job_width(), one job each; the caller draws the
  // inputs in RNG order and merges each wave's records in sample order.
  Rng rng(options.seed);
  const OpShape& in = session.input_shape();
  const std::int64_t wave = std::min<std::int64_t>(job_width(), samples);
  std::vector<Tensor> xs;
  std::vector<std::vector<SampleRange>> recs(static_cast<std::size_t>(wave));
  for (std::int64_t first = 0; first < samples; first += wave) {
    const std::int64_t count = std::min(wave, samples - first);
    xs.clear();
    for (std::int64_t s = 0; s < count; ++s) {
      xs.push_back(
          Tensor::random_uniform({in.c, in.h, in.w}, rng, -1.0f, 1.0f));
      recs[static_cast<std::size_t>(s)].assign(observers.size(),
                                               SampleRange{});
    }
    parallel_jobs(count, [&](std::int64_t s) {
      run_sample(ref, xs[static_cast<std::size_t>(s)],
                 recs[static_cast<std::size_t>(s)]);
    });
    for (std::int64_t s = 0; s < count; ++s) {
      const std::vector<SampleRange>& rec = recs[static_cast<std::size_t>(s)];
      for (std::size_t k = 0; k < observers.size(); ++k) {
        observers[k].merge(rec[k]);
      }
    }
  }

  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    if (model.layers[i].kind != LayerKind::kConv) {
      continue;
    }
    LayerQuant& q = table.layers[i];
    q.quantize = true;
    q.input = observers[i * kSlotsPerOp].params();
    q.z1 = observers[i * kSlotsPerOp + 1].params();
    q.z2 = observers[i * kSlotsPerOp + 2].params();
  }
  return table;
}

}  // namespace

QuantTable calibrate_quant(const DeviceSpec& device, const ModelSpec& model,
                           const std::vector<LayerWeights>& weights,
                           const std::vector<LayerDecision>& decisions,
                           const CalibrationOptions& options) {
  return map_resource_failure("calibrate_quant", [&] {
    return calibrate_impl(device, model, weights, decisions, options);
  });
}

}  // namespace tdc
