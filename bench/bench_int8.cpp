// Int8 serving-path benchmark: the AVX2 prepacked s8·u8 GEMM against the
// fp32 prepacked GEMM at real ResNet-18 im2col shapes, plus the end-to-end
// mixed-precision full-width ResNet-18 (TDC_INT8=2) against its fp32 twin.
//
// Emitted to BENCH_int8.json alongside the table:
//   * per-shape GEMM duel — M = output channels, K = C·R·S, N = OH·OW of
//     four serving layers; int8 time includes the activation requantization
//     epilogue (dequantize_f32), fp32 time is gemm_prepacked on the same
//     operands, the two timed in alternation. CI enforces the throughput
//     floor on AVX2 builds: the geomean int8 speedup must be >= 2.0x (the
//     maddubs/madd pipeline does 4 MACs per 32-bit lane against fp32 FMA's
//     1, and B-panel traffic drops 4x). Generic builds report the
//     scalar-fallback ratio ungated — the fallback exists for correctness,
//     not speed;
//   * e2e latency — calibrated mixed-precision ResNet-18 through an
//     InferenceSession vs the fp32 session, reported but not gated (layer
//     mix and codesign decisions dominate the ratio).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/codesign.h"
#include "exec/graph_plan.h"
#include "exec/quantize.h"
#include "linalg/gemm.h"
#include "linalg/gemm_s8.h"
#include "nn/models.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double best_of(int reps, const std::function<void()>& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    best = std::min(best, seconds(fn));
  }
  return best;
}

struct GemmShape {
  const char* layer;
  std::int64_t m, k, n;
};

struct GemmResult {
  GemmShape shape;
  double fp32_s = 0.0;
  double s8_s = 0.0;
  double fp32_gflops = 0.0;
  double s8_gops = 0.0;
};

GemmResult duel(const GemmShape& shape) {
  using namespace tdc;
  Rng rng(515);
  const std::int64_t m = shape.m, k = shape.k, n = shape.n;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) {
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto& v : b) {
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  const PackedGemmA af = pack_gemm_a(m, k, a.data(), k, 1);
  std::vector<float> cf(static_cast<std::size_t>(m * n));
  const auto fp32_run = [&] {
    gemm_prepacked(af, n, b.data(), n, 1, cf.data(), n);
  };

  const QuantizedRows qa = quantize_rows_s8(m, k, a.data(), k, 1);
  const PackedGemmAS8 a8 = pack_gemm_a_s8(m, k, qa.values.data(), k, 1);
  const QuantParams qb = choose_quant_params(-1.0f, 1.0f);
  std::vector<std::uint8_t> b8(static_cast<std::size_t>(k * n));
  quantize_u8(b.data(), k * n, qb, b8.data());
  std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n));
  std::vector<float> c8(static_cast<std::size_t>(m * n));
  std::vector<float> mult(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    mult[static_cast<std::size_t>(i)] =
        qa.scales[static_cast<std::size_t>(i)] * qb.scale;
  }
  // The int8 side is charged for the full serving epilogue: integer GEMM
  // plus the per-channel dequantization back to fp32 activations.
  const auto s8_run = [&] {
    gemm_prepacked_s8u8(a8, n, b8.data(), n, qb.zero_point, acc.data(), n);
    dequantize_f32(acc.data(), m, n, n, mult.data(), c8.data(), n);
  };

  fp32_run();  // warm (thread pool, pack-buffer growth, page faults)
  s8_run();

  GemmResult res;
  res.shape = shape;
  // The two sides alternate within each rep, so host load that drifts over
  // the duel reaches both alike; each side keeps its minimum.
  res.fp32_s = res.s8_s = 1e30;
  for (int r = 0; r < 5; ++r) {
    res.fp32_s = std::min(res.fp32_s, seconds(fp32_run));
    res.s8_s = std::min(res.s8_s, seconds(s8_run));
  }
  const double ops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                     static_cast<double>(n);
  res.fp32_gflops = ops / res.fp32_s / 1e9;
  res.s8_gops = ops / res.s8_s / 1e9;
  return res;
}

}  // namespace

int main() {
  using namespace tdc;

  // im2col geometries of four full-width ResNet-18 layers: the stride-2
  // stage entries, a mid-network 3x3, a deep 3x3 and a pointwise projection.
  const GemmShape shapes[] = {
      {"conv2_x 3x3", 64, 576, 3136},
      {"conv3_x 3x3", 128, 1152, 784},
      {"conv5_x 3x3", 512, 4608, 49},
      {"proj 1x1", 256, 256, 784},
  };
#if defined(__AVX2__)
  const bool avx2 = true;
#else
  const bool avx2 = false;
#endif
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
  const char* tier = "avx512-vnni";
#elif defined(__AVX2__)
  const char* tier = "avx2";
#else
  const char* tier = "scalar";
#endif

  std::vector<GemmResult> results;
  std::vector<double> speedups;
  for (const GemmShape& s : shapes) {
    results.push_back(duel(s));
    speedups.push_back(results.back().fp32_s / results.back().s8_s);
  }
  const double geo = bench::geomean(speedups);

  // ---- e2e: mixed-precision ResNet-18 vs fp32 -----------------------------
  const DeviceSpec device = make_a100();
  const ModelSpec model = make_resnet18();
  const auto weights = random_model_weights(model, 515);
  CodesignOptions cd_opts;
  cd_opts.budget = 0.65;
  const CodesignResult codesign =
      run_codesign(device, model.decomposable_conv_shapes(), cd_opts);

  SessionOptions fp32_opts;
  fp32_opts.dense_algo = ConvAlgo::kIm2col;
  fp32_opts.use_plan_cache = false;
  const InferenceSession fp32_session = InferenceSession::compile(
      device, model, weights, codesign.layers, fp32_opts);

  CalibrationOptions calib;
  calib.samples = 2;
  const QuantTable table =
      calibrate_quant(device, model, weights, codesign.layers, calib);
  ::setenv("TDC_INT8", "2", 1);
  SessionOptions s8_opts = fp32_opts;
  s8_opts.quant = &table;
  const InferenceSession s8_session = InferenceSession::compile(
      device, model, weights, codesign.layers, s8_opts);
  ::unsetenv("TDC_INT8");

  Rng rng(516);
  const Tensor x = Tensor::random_uniform({3, 224, 224}, rng);
  std::vector<float> ws(static_cast<std::size_t>(
      (std::max(fp32_session.workspace_bytes(),
                s8_session.workspace_bytes()) +
       3) /
      4));
  Tensor y({1000, 1, 1});
  fp32_session.run(x, &y, ws);
  s8_session.run(x, &y, ws);
  const double e2e_fp32_s =
      best_of(3, [&] { fp32_session.run(x, &y, ws); });
  const double e2e_s8_s = best_of(3, [&] { s8_session.run(x, &y, ws); });

  // ---- table --------------------------------------------------------------
  bench::print_title(std::string("Int8 serving path — prepacked s8-u8 GEMM "
                                 "vs fp32 (") +
                     tier + " kernel, " + std::to_string(num_threads()) +
                     " threads)");
  std::printf("%-14s %6s %6s %6s %12s %12s %10s\n", "layer", "M", "K", "N",
              "fp32 GFLOP/s", "int8 GOP/s", "speedup");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GemmResult& r = results[i];
    std::printf("%-14s %6lld %6lld %6lld %12.1f %12.1f %10s\n", r.shape.layer,
                static_cast<long long>(r.shape.m),
                static_cast<long long>(r.shape.k),
                static_cast<long long>(r.shape.n), r.fp32_gflops, r.s8_gops,
                bench::ratio(speedups[i]).c_str());
  }
  std::printf("geomean GEMM speedup: %s  (CI floor on AVX2: 2.00x)\n",
              bench::ratio(geo).c_str());
  std::printf("e2e resnet18   fp32 %sms   mixed-precision %sms   (%s)\n",
              bench::ms(e2e_fp32_s).c_str(), bench::ms(e2e_s8_s).c_str(),
              bench::ratio(e2e_fp32_s / e2e_s8_s).c_str());

  // ---- JSON ---------------------------------------------------------------
  FILE* json = std::fopen("BENCH_int8.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_int8.json for writing\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"int8\",\n  \"avx2\": %s,\n"
               "  \"kernel_tier\": \"%s\",\n"
               "  \"threads\": %d,\n  \"gemms\": [\n",
               avx2 ? "true" : "false", tier, num_threads());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GemmResult& r = results[i];
    std::fprintf(json,
                 "    {\"layer\": \"%s\", \"m\": %lld, \"k\": %lld, "
                 "\"n\": %lld, \"fp32_gflops\": %.2f, \"int8_gops\": %.2f, "
                 "\"speedup\": %.3f}%s\n",
                 r.shape.layer, static_cast<long long>(r.shape.m),
                 static_cast<long long>(r.shape.k),
                 static_cast<long long>(r.shape.n), r.fp32_gflops, r.s8_gops,
                 speedups[i], i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"geomean_speedup\": %.3f,\n"
               "  \"e2e_resnet18\": {\"fp32_ms\": %.3f, "
               "\"mixed_precision_ms\": %.3f, \"speedup\": %.3f}\n}\n",
               geo, e2e_fp32_s * 1e3, e2e_s8_s * 1e3,
               e2e_fp32_s / e2e_s8_s);
  std::fclose(json);
  std::printf("wrote BENCH_int8.json\n");

  // Regression bar (CI runs this binary): the int8 GEMM must beat fp32 by
  // 2x geomean wherever the AVX2 kernel compiled in. The scalar fallback is
  // a correctness artifact and stays ungated.
  if (avx2 && geo < 2.0) {
    std::fprintf(stderr,
                 "FAIL: int8 GEMM geomean speedup %.2fx below the 2.0x "
                 "floor\n",
                 geo);
    return 1;
  }
  return 0;
}
