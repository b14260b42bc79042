// Tests for the int8 serving path (linalg/gemm_s8.h, exec/quantize.h):
// quantizer round-trip and saturation; round-to-nearest-even requantization
// against a double-precision oracle; the int8 prepacked GEMM against an
// exact naive integer reference (the AVX2 and scalar kernels must both match
// it bit for bit); per-channel BN folding; quantized conv and Tucker plans
// against their fp32 twins within the documented quantization-error bound on
// NaN-poisoned guard-banded workspaces; calibration determinism; the
// hand-off of calibration's Tucker factors to the compile; and the
// acceptance walk — a calibrated mixed-precision full-width ResNet-18 served
// through the replica fleet bitwise-identically to a plain session.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <numeric>
#include <string>
#include <vector>

#include "common/alloc_guard.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "conv/conv.h"
#include "core/codesign.h"
#include "exec/graph_plan.h"
#include "exec/plan_cache.h"
#include "exec/quantize.h"
#include "exec/workspace_guard.h"
#include "linalg/gemm.h"
#include "linalg/gemm_s8.h"
#include "nn/models.h"
#include "serving/inference_server.h"
#include "tucker/flops.h"
#include "tucker/tucker.h"

namespace tdc {
namespace {

constexpr float kGuard = 12345.678f;
constexpr std::int64_t kGuardFloats = 64;

// Workspace of exactly plan->workspace_bytes(), bracketed by guard bands and
// poisoned with NaN (see test_conv_plan.cpp): stale-scratch reads propagate
// NaN, out-of-bounds writes trip a guard.
struct PoisonedWorkspace {
  explicit PoisonedWorkspace(std::int64_t bytes)
      : floats(bytes / static_cast<std::int64_t>(sizeof(float))),
        buf(static_cast<std::size_t>(floats + 2 * kGuardFloats), kGuard) {
    poison();
  }

  void poison() {
    std::fill(buf.begin() + kGuardFloats, buf.begin() + kGuardFloats + floats,
              std::numeric_limits<float>::quiet_NaN());
  }

  std::span<float> span() {
    return std::span<float>(buf).subspan(kGuardFloats,
                                         static_cast<std::size_t>(floats));
  }

  bool guards_intact() const {
    for (std::int64_t i = 0; i < kGuardFloats; ++i) {
      if (buf[static_cast<std::size_t>(i)] != kGuard ||
          buf[buf.size() - 1 - static_cast<std::size_t>(i)] != kGuard) {
        return false;
      }
    }
    return true;
  }

  std::int64_t floats;
  std::vector<float> buf;
};

bool all_finite(const Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t[i])) {
      return false;
    }
  }
  return true;
}

// The inverse of quantize_u8: x̂ = (q − zp) · scale.
float dequantized(std::uint8_t q, const QuantParams& qp) {
  return static_cast<float>(static_cast<std::int32_t>(q) - qp.zero_point) *
         qp.scale;
}

QuantParams observe_params(const float* x, std::int64_t count) {
  MinMaxObserver obs;
  obs.observe(x, count);
  return obs.params();
}

TEST(Quantize, ChooseParamsCoversRangeAndMapsZeroExactly) {
  const QuantParams qp = choose_quant_params(-2.0f, 6.0f);
  EXPECT_NEAR(qp.scale, 8.0f / 127.0f, 1e-6f);
  EXPECT_GE(qp.zero_point, 0);
  EXPECT_LE(qp.zero_point, 127);
  // fp32 zero must quantize to the zero point and dequantize back exactly.
  const float zero = 0.0f;
  std::uint8_t q = 0;
  quantize_u8(&zero, 1, qp, &q);
  EXPECT_EQ(static_cast<std::int32_t>(q), qp.zero_point);
  EXPECT_EQ(dequantized(q, qp), 0.0f);

  // Degenerate ranges (all-zero tensors, never-observed layers) fall back to
  // unit scale instead of dividing by zero.
  const QuantParams flat = choose_quant_params(0.0f, 0.0f);
  EXPECT_EQ(flat.scale, 1.0f);
  EXPECT_EQ(flat.zero_point, 0);
}

TEST(Quantize, RoundTripWithinHalfScaleAndSaturates) {
  Rng rng(7001);
  const Tensor x = Tensor::random_uniform({512}, rng, -1.5f, 3.0f);
  const QuantParams qp = observe_params(x.raw(), x.numel());
  std::vector<std::uint8_t> q(static_cast<std::size_t>(x.numel()));
  quantize_u8(x.raw(), x.numel(), qp, q.data());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float back = dequantized(q[static_cast<std::size_t>(i)], qp);
    EXPECT_LE(std::fabs(back - x[i]),
              qp.scale * 0.5f * 1.05f + 1e-5f)
        << "i=" << i;
  }
  // Out-of-range values clamp to the 7-bit domain instead of wrapping.
  const float wild[2] = {1e6f, -1e6f};
  std::uint8_t qw[2] = {0, 0};
  quantize_u8(wild, 2, qp, qw);
  EXPECT_EQ(static_cast<std::int32_t>(qw[0]), 127);
  EXPECT_EQ(static_cast<std::int32_t>(qw[1]), 0);
}

TEST(Quantize, RequantizeIsRoundToNearestEven) {
  // multiplier 0.5 is exact in float, so acc·m lands exactly on .5
  // boundaries: ties must go to even on both the AVX2 and scalar epilogues.
  const std::int32_t acc[8] = {1, 3, 5, 7, -1, -3, 300, -300};
  const float mult = 0.5f;
  std::int8_t s8[8] = {};
  requantize_s8(acc, 1, 8, 8, &mult, 0, s8, 8);
  EXPECT_EQ(s8[0], 0);   // 0.5 → 0
  EXPECT_EQ(s8[1], 2);   // 1.5 → 2
  EXPECT_EQ(s8[2], 2);   // 2.5 → 2
  EXPECT_EQ(s8[3], 4);   // 3.5 → 4
  EXPECT_EQ(s8[4], 0);   // -0.5 → 0
  EXPECT_EQ(s8[5], -2);  // -1.5 → -2
  EXPECT_EQ(s8[6], 127);   // saturate high
  EXPECT_EQ(s8[7], -128);  // saturate low

  std::uint8_t u8[8] = {};
  requantize_u8(acc, 1, 8, 8, &mult, 0, u8, 8);
  EXPECT_EQ(static_cast<std::int32_t>(u8[6]), 127);  // clamps to 7-bit
  EXPECT_EQ(static_cast<std::int32_t>(u8[7]), 0);    // negatives floor at 0

  // Against a double oracle on random accumulators and multipliers.
  Rng rng(7002);
  std::vector<std::int32_t> a(256);
  for (auto& v : a) {
    v = static_cast<std::int32_t>(
        std::lround((rng.uniform() - 0.5) * 200000.0));
  }
  const float m = 0.000775f;
  std::vector<std::int8_t> got(a.size());
  requantize_s8(a.data(), 1, static_cast<std::int64_t>(a.size()),
                static_cast<std::int64_t>(a.size()), &m, 3, got.data(),
                static_cast<std::int64_t>(a.size()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The kernel rounds the *float* product; reproduce it exactly.
    const float prod = static_cast<float>(a[i]) * m;
    const double want =
        std::clamp(std::nearbyint(static_cast<double>(prod)) + 3.0, -128.0,
                   127.0);
    EXPECT_EQ(static_cast<double>(got[i]), want) << "i=" << i;
  }
}

// The quantizer's scalar formula, which the AVX2 body must reproduce bit
// for bit on in-range inputs.
std::uint8_t quantize_formula(float x, const QuantParams& qp) {
  const std::int32_t q =
      static_cast<std::int32_t>(std::nearbyintf(x * (1.0f / qp.scale))) +
      qp.zero_point;
  return static_cast<std::uint8_t>(std::clamp(q, 0, 127));
}

TEST(Quantize, VectorBodyMatchesScalarFormulaAtEveryLengthAndOffset) {
  const int saved = num_threads();
  Rng rng(7010);
  QuantParams qp;
  qp.scale = 0.0625f;  // exact inverse 16, so the ties below are exact
  qp.zero_point = 37;
  std::vector<float> src(80);
  for (auto& v : src) {
    v = static_cast<float>((rng.uniform() - 0.3) * 8.0);
  }
  // Products landing exactly on .5 (ties go to even), signed zeros, and
  // both ends of the clamp.
  src[3] = 2.5f / 16.0f;
  src[5] = -0.5f / 16.0f;
  src[11] = 3.5f / 16.0f;
  src[20] = -0.0f;
  src[21] = 0.0f;
  src[33] = -1.5f / 16.0f;
  src[40] = 9.0f;
  src[41] = -9.0f;
  constexpr std::uint8_t kGuardByte = 0xAB;
  for (std::int64_t offset = 0; offset < 4; ++offset) {
    for (std::int64_t len = 0; len <= 70; ++len) {
      std::vector<std::uint8_t> got(static_cast<std::size_t>(len + 8),
                                    kGuardByte);
      quantize_u8(src.data() + offset, len, qp, got.data() + offset);
      for (std::int64_t i = 0; i < len + 8; ++i) {
        const std::uint8_t want =
            i >= offset && i < offset + len
                ? quantize_formula(src[static_cast<std::size_t>(i)], qp)
                : kGuardByte;
        ASSERT_EQ(got[static_cast<std::size_t>(i)], want)
            << "offset=" << offset << " len=" << len << " i=" << i;
      }
    }
  }
  // Threaded chunks start at arbitrary, unaligned element indices.
  const Tensor big = Tensor::random_uniform({10001}, rng, -5.0f, 5.0f);
  for (const int nt : {1, 3}) {
    set_num_threads(nt);
    std::vector<std::uint8_t> got(static_cast<std::size_t>(big.numel()));
    quantize_u8(big.raw(), big.numel(), qp, got.data());
    for (std::int64_t i = 0; i < big.numel(); ++i) {
      ASSERT_EQ(got[static_cast<std::size_t>(i)], quantize_formula(big[i], qp))
          << "threads=" << nt << " i=" << i;
    }
  }
  set_num_threads(saved);
}

TEST(Quantize, SaturatesBeyondInt32Range) {
  // x / scale past the int32 range once reached an undefined float→int32
  // cast (scalar) or cvtps_epi32's INT_MIN (AVX2), and came out 0 for
  // large positive inputs. Both paths now saturate; NaN maps to 0.
  QuantParams qp;
  qp.scale = 0.01f;
  qp.zero_point = 10;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float wild[] = {1e8f, inf, nan, -1e8f, -inf, 3e38f, -3e38f, 2.6f,
                        -2.6f};
  const std::uint8_t want[] = {127, 127, 0, 0, 0, 127, 0, 127, 0};
  constexpr std::size_t kWild = sizeof(wild) / sizeof(wild[0]);
  for (std::size_t v = 0; v < kWild; ++v) {
    // Alone (the scalar tail) and at every slot of a 64-element run (the
    // AVX2 body), beside in-range values that must not move.
    std::uint8_t q = 99;
    quantize_u8(&wild[v], 1, qp, &q);
    EXPECT_EQ(q, want[v]) << "value " << wild[v];
    for (std::size_t slot = 0; slot < 64; ++slot) {
      std::vector<float> x(64, 0.5f);  // 0.5 / 0.01 + 10 = 60
      x[slot] = wild[v];
      std::vector<std::uint8_t> out(64, 99);
      quantize_u8(x.data(), 64, qp, out.data());
      for (std::size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(out[i], i == slot ? want[v] : 60)
            << "value " << wild[v] << " slot " << slot << " i " << i;
      }
    }
  }
}

TEST(Quantize, RequantizeVectorTailsMatchScalarFormula) {
  // Rows of n mod 32 ≠ 0 (and n mod 8 ≠ 0) with ldc, ldo > n: the 8-wide
  // pack-and-store body and the scalar tail must both equal the formula,
  // and nothing past column n of an output row may be written.
  Rng rng(7011);
  constexpr std::int64_t m = 3;
  const float mult[m] = {0.000775f, 0.0013f, 0.00041f};
  constexpr std::uint8_t kGuardByte = 0xC5;
  for (const std::int64_t n : {1, 7, 8, 9, 11, 31, 33, 47, 70}) {
    const std::int64_t ldc = n + 5;
    const std::int64_t ldo = n + 3;
    std::vector<std::int32_t> acc(static_cast<std::size_t>(m * ldc));
    for (auto& v : acc) {
      v = static_cast<std::int32_t>(
          std::lround((rng.uniform() - 0.5) * 400000.0));
    }
    std::vector<std::int8_t> s8(static_cast<std::size_t>(m * ldo),
                                static_cast<std::int8_t>(kGuardByte));
    std::vector<std::uint8_t> u8(static_cast<std::size_t>(m * ldo),
                                 kGuardByte);
    requantize_s8(acc.data(), m, n, ldc, mult, 3, s8.data(), ldo);
    requantize_u8(acc.data(), m, n, ldc, mult, 60, u8.data(), ldo);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < ldo; ++j) {
        const std::size_t o = static_cast<std::size_t>(i * ldo + j);
        if (j >= n) {
          ASSERT_EQ(static_cast<std::uint8_t>(s8[o]), kGuardByte);
          ASSERT_EQ(u8[o], kGuardByte);
          continue;
        }
        const float prod =
            static_cast<float>(acc[static_cast<std::size_t>(i * ldc + j)]) *
            mult[i];
        const std::int32_t r = static_cast<std::int32_t>(std::nearbyintf(prod));
        ASSERT_EQ(s8[o], std::clamp(r + 3, -128, 127))
            << "n=" << n << " i=" << i << " j=" << j;
        ASSERT_EQ(u8[o], std::clamp(r + 60, 0, 127))
            << "n=" << n << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Quantize, RequantizeSaturatesBeyondInt32Range) {
  // acc·multiplier past the int32 range once reached cvtps_epi32's INT_MIN
  // (AVX2 body) or an undefined cast (scalar tail) and saturated to the
  // wrong end. Every out-of-range product, of either sign and for either
  // output type, must land on the end its sign points to, alone (the
  // scalar tail) and at every slot of a 24-wide row (the 8-wide body and a
  // tail), while the in-range neighbours keep their exact values.
  constexpr std::int64_t n = 24;
  const float mult = 4.0f;
  using Limits = std::numeric_limits<std::int32_t>;
  const std::int32_t big[] = {2000000000, Limits::max(), -2000000000,
                              Limits::min()};
  const std::int32_t kNeighbour = 5;  // 5·4 = 20
  for (const std::int32_t acc_value : big) {
    const bool positive = acc_value > 0;
    const std::int8_t want_s8 = positive ? 127 : -128;
    const std::uint8_t want_u8 = positive ? 127 : 0;
    std::int8_t s8 = 0;
    std::uint8_t u8 = 99;
    requantize_s8(&acc_value, 1, 1, 1, &mult, 0, &s8, 1);
    requantize_u8(&acc_value, 1, 1, 1, &mult, 60, &u8, 1);
    EXPECT_EQ(s8, want_s8) << "acc " << acc_value;
    EXPECT_EQ(u8, want_u8) << "acc " << acc_value;
    for (std::int64_t slot = 0; slot < n; ++slot) {
      std::vector<std::int32_t> acc(n, kNeighbour);
      acc[static_cast<std::size_t>(slot)] = acc_value;
      std::vector<std::int8_t> out_s8(n, 0);
      std::vector<std::uint8_t> out_u8(n, 99);
      requantize_s8(acc.data(), 1, n, n, &mult, -3, out_s8.data(), n);
      requantize_u8(acc.data(), 1, n, n, &mult, 60, out_u8.data(), n);
      for (std::int64_t j = 0; j < n; ++j) {
        const auto at = static_cast<std::size_t>(j);
        ASSERT_EQ(out_s8[at], j == slot ? want_s8 : 17)
            << "acc " << acc_value << " slot " << slot << " j " << j;
        ASSERT_EQ(out_u8[at], j == slot ? want_u8 : 80)
            << "acc " << acc_value << " slot " << slot << " j " << j;
      }
    }
  }
}

TEST(Quantize, Int8GemmMatchesNaiveIntegerReferenceExactly) {
  const int saved = num_threads();
  Rng rng(7003);
  struct Case {
    std::int64_t m, k, n;
    std::int32_t zp;
    std::int64_t ldb;
  };
  // Ragged edges in every dimension, a k beyond one cache band, and both
  // zero and nonzero activation zero points. The stem-like last case has
  // k mod 4 = 3 (a padded final quad after the vector-packed ones), n past
  // one 1024-column band (a second band ending in a ragged sliver), and
  // ldb > n, whose unused columns hold bytes outside the 7-bit domain so
  // that reading one would show. The last two split C across threads: by
  // rows, at edges inside a 120-row panel and over two K blocks, and by
  // columns with ragged rows.
  const Case cases[] = {{6, 4, 16, 0, 16},
                        {7, 9, 17, 11, 17},
                        {13, 300, 33, 127, 33},
                        {1, 1, 1, 64, 1},
                        {5, 147, 1100, 23, 1111},
                        {400, 260, 40, 9, 40},
                        {130, 70, 2100, 5, 2100}};
  for (const Case& c : cases) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(c.m * c.k));
    std::vector<std::uint8_t> b(static_cast<std::size_t>(c.k * c.ldb), 255);
    for (auto& v : a) {
      v = static_cast<std::int8_t>(
          std::lround((rng.uniform() - 0.5) * 254.0));
    }
    for (std::int64_t kk = 0; kk < c.k; ++kk) {
      for (std::int64_t j = 0; j < c.n; ++j) {
        b[static_cast<std::size_t>(kk * c.ldb + j)] =
            static_cast<std::uint8_t>(std::lround(rng.uniform() * 127.0));
      }
    }
    const PackedGemmAS8 packed = pack_gemm_a_s8(c.m, c.k, a.data(), c.k, 1);
    EXPECT_EQ(packed.rows(), c.m);
    EXPECT_EQ(packed.depth(), c.k);

    std::vector<std::int32_t> want(static_cast<std::size_t>(c.m * c.n));
    for (std::int64_t i = 0; i < c.m; ++i) {
      for (std::int64_t j = 0; j < c.n; ++j) {
        std::int64_t sum = 0;
        for (std::int64_t kk = 0; kk < c.k; ++kk) {
          sum += static_cast<std::int64_t>(a[static_cast<std::size_t>(
                     i * c.k + kk)]) *
                 (static_cast<std::int64_t>(
                      b[static_cast<std::size_t>(kk * c.ldb + j)]) -
                  c.zp);
        }
        want[static_cast<std::size_t>(i * c.n + j)] =
            static_cast<std::int32_t>(sum);
      }
    }

    for (const int nt : {1, 3, 4}) {
      set_num_threads(nt);
      std::vector<std::int32_t> got(static_cast<std::size_t>(c.m * c.n),
                                    -777);
      gemm_prepacked_s8u8(packed, c.n, b.data(), c.ldb, c.zp, got.data(),
                          c.n);
      EXPECT_EQ(got, want) << "m=" << c.m << " k=" << c.k << " n=" << c.n
                           << " zp=" << c.zp << " threads=" << nt;
    }
  }
  set_num_threads(saved);
}

TEST(Quantize, QuantizeRowsUsesPerChannelSymmetricScales) {
  // Row 0 spans ±4, row 1 is tiny, row 2 is all zeros.
  const float a[3][4] = {{4.0f, -2.0f, 1.0f, -4.0f},
                         {0.01f, -0.005f, 0.002f, 0.01f},
                         {0.0f, 0.0f, 0.0f, 0.0f}};
  const QuantizedRows q = quantize_rows_s8(3, 4, &a[0][0], 4, 1);
  EXPECT_NEAR(q.scales[0], 4.0f / 127.0f, 1e-7f);
  EXPECT_NEAR(q.scales[1], 0.01f / 127.0f, 1e-9f);
  EXPECT_EQ(q.scales[2], 1.0f);  // all-zero row: unit scale, zero values
  EXPECT_EQ(q.values[0], 127);   // the row max hits full scale
  EXPECT_EQ(q.values[3], -127);
  for (int kk = 0; kk < 4; ++kk) {
    EXPECT_EQ(q.values[static_cast<std::size_t>(8 + kk)], 0);
  }
  // Per-row reconstruction stays within half a step.
  for (int i = 0; i < 2; ++i) {
    for (int kk = 0; kk < 4; ++kk) {
      const float back =
          static_cast<float>(q.values[static_cast<std::size_t>(i * 4 + kk)]) *
          q.scales[static_cast<std::size_t>(i)];
      EXPECT_LE(std::fabs(back - a[i][kk]),
                q.scales[static_cast<std::size_t>(i)] * 0.5f + 1e-9f);
    }
  }
}

TEST(Quantize, PercentileObserverShrugsOffOutliersDeterministically) {
  Rng rng(7005);
  std::vector<float> vals(20000);
  for (auto& v : vals) {
    v = rng.uniform();  // [0, 1)
  }
  vals[777] = 1000.0f;  // a single wild outlier

  MinMaxObserver mm;
  mm.observe(vals.data(), static_cast<std::int64_t>(vals.size()));
  PercentileObserver pct(0.999);
  pct.observe(vals.data(), static_cast<std::int64_t>(vals.size()));
  // kMinMax stretches the scale across the outlier; the percentile range
  // stays near the bulk of the distribution.
  EXPECT_GT(mm.params().scale, 1.0f);
  EXPECT_LT(pct.params().scale, 0.05f);

  // Identical observations → identical parameters (no RNG in the subsample).
  PercentileObserver again(0.999);
  again.observe(vals.data(), static_cast<std::int64_t>(vals.size()));
  EXPECT_EQ(pct.params().scale, again.params().scale);
  EXPECT_EQ(pct.params().zero_point, again.params().zero_point);
}

// Per-sample records merged in sample order must leave the observers
// exactly as observing every sample in turn: the percentile replay with a
// small cap (so thinning happens between and inside replays) and counts
// that are not multiples of 4096, the min/max merge with an unseen side.
TEST(Quantize, ObserverMergeEqualsDirectObservation) {
  Rng rng(7030);
  const std::int64_t counts[] = {100, 5000, 12345, 1, 8193, 4096 * 3 + 7,
                                 40000, 4095};
  for (const std::int64_t cap : {16, 64, 1000}) {
    for (const double pct : {0.9, 0.999, 1.0}) {
      PercentileObserver direct(pct, cap);
      PercentileObserver replayed(pct, cap);
      MinMaxObserver mm_direct;
      MinMaxObserver mm_merged;
      mm_merged.merge(MinMaxObserver{});  // unseen: a no-op
      for (const std::int64_t count : counts) {
        std::vector<float> x(static_cast<std::size_t>(count));
        for (float& v : x) {
          v = rng.uniform() * 8.0f - 3.0f;
        }
        direct.observe(x.data(), count);
        replayed.replay(PercentileObserver::subsample(x.data(), count));
        mm_direct.observe(x.data(), count);
        MinMaxObserver sample;
        sample.observe(x.data(), count);
        mm_merged.merge(sample);
        const std::string where = "cap=" + std::to_string(cap) +
                                  " pct=" + std::to_string(pct) +
                                  " count=" + std::to_string(count);
        EXPECT_EQ(replayed.params().scale, direct.params().scale) << where;
        EXPECT_EQ(replayed.params().zero_point, direct.params().zero_point)
            << where;
        EXPECT_EQ(mm_merged.lo(), mm_direct.lo()) << where;
        EXPECT_EQ(mm_merged.hi(), mm_direct.hi()) << where;
      }
    }
  }
  // The subsample keeps every max(1, count/4096)-th value from the first.
  std::vector<float> ramp(12345);
  std::iota(ramp.begin(), ramp.end(), 0.0f);
  const std::vector<float> sub = PercentileObserver::subsample(
      ramp.data(), static_cast<std::int64_t>(ramp.size()));
  ASSERT_EQ(sub.size(), std::size_t{4115});  // ceil(12345 / 3)
  EXPECT_EQ(sub[1], 3.0f);
  EXPECT_EQ(sub.back(), 12342.0f);
}

// The documented single-GEMM error bound, per output channel i:
//   |ŷ − y| ≤ (s_x/2)·Σ_k|w(i,k)| + (s_w_i/2)·max_j Σ_k|x(k,j)| + K·s_x·s_w_i/4
// evaluated on the true fp32 weight matrix and patch matrix.
std::vector<float> conv_quant_bounds(const ConvShape& shape, const Tensor& x,
                                     const Tensor& kernel, float s_x) {
  const Tensor wmat = conv_weight_matrix(kernel, shape);
  const Tensor cols = im2col(x, shape);
  const std::int64_t kdim = shape.c * shape.r * shape.s;
  const std::int64_t ohw = shape.out_h() * shape.out_w();
  const QuantizedRows qw =
      quantize_rows_s8(shape.n, kdim, wmat.raw(), kdim, 1);
  float col_sum_max = 0.0f;
  for (std::int64_t j = 0; j < ohw; ++j) {
    float s = 0.0f;
    for (std::int64_t kk = 0; kk < kdim; ++kk) {
      s += std::fabs(cols[kk * ohw + j]);
    }
    col_sum_max = std::max(col_sum_max, s);
  }
  std::vector<float> bounds(static_cast<std::size_t>(shape.n));
  for (std::int64_t i = 0; i < shape.n; ++i) {
    float w_sum = 0.0f;
    for (std::int64_t kk = 0; kk < kdim; ++kk) {
      w_sum += std::fabs(wmat[i * kdim + kk]);
    }
    const float s_w = qw.scales[static_cast<std::size_t>(i)];
    bounds[static_cast<std::size_t>(i)] =
        0.5f * s_x * w_sum + 0.5f * s_w * col_sum_max +
        0.25f * static_cast<float>(kdim) * s_x * s_w;
  }
  return bounds;
}

TEST(QuantizedConvPlan, MatchesFp32WithinQuantBoundOnPoisonedWorkspace) {
  Rng rng(7006);
  ConvShape strided = ConvShape::same(4, 6, 11, 3, 2);
  const ConvShape shapes[] = {
      ConvShape::same(5, 7, 12, 3),          // padded 3×3
      ConvShape::valid_conv(8, 6, 10, 10, 1, 1),  // pointwise, patch-free
      strided,                               // strided stage transition
      ConvShape::same(3, 4, 9, 5),           // 5×5, pad 2
  };
  for (const ConvShape& shape : shapes) {
    const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
    const Tensor kernel =
        Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
    const Tensor ref = conv2d_reference(x, kernel, shape);

    LayerQuant quant;
    quant.quantize = true;
    quant.input = observe_params(x.raw(), x.numel());
    const auto plan = compile_quantized_conv_plan(shape, kernel, quant);
    EXPECT_TRUE(plan->quantized());
    EXPECT_FALSE(plan->decomposed());

    PoisonedWorkspace ws(plan->workspace_bytes());
    Tensor y({shape.n, shape.out_h(), shape.out_w()});
    plan->run(x, &y, ws.span());
    EXPECT_TRUE(ws.guards_intact()) << shape.to_string();
    EXPECT_TRUE(all_finite(y)) << shape.to_string();

    const std::vector<float> bounds =
        conv_quant_bounds(shape, x, kernel, quant.input.scale);
    const std::int64_t ohw = shape.out_h() * shape.out_w();
    for (std::int64_t i = 0; i < shape.n; ++i) {
      for (std::int64_t j = 0; j < ohw; ++j) {
        EXPECT_LE(std::fabs(y[i * ohw + j] - ref[i * ohw + j]),
                  1.05f * bounds[static_cast<std::size_t>(i)] + 1e-3f)
            << shape.to_string() << " at (" << i << "," << j << ")";
      }
    }

    // Bit-identical across thread counts (integer arithmetic is exact, the
    // epilogue multiplies are elementwise).
    const int saved = num_threads();
    for (const int nt : {1, 4}) {
      set_num_threads(nt);
      ws.poison();
      Tensor again({shape.n, shape.out_h(), shape.out_w()});
      plan->run(x, &again, ws.span());
      EXPECT_EQ(Tensor::max_abs_diff(y, again), 0.0)
          << shape.to_string() << " threads=" << nt;
    }
    set_num_threads(saved);
  }
}

TEST(QuantizedTuckerPlan, TracksFp32PipelineOnPoisonedWorkspace) {
  Rng rng(7007);
  const ConvShape shape = ConvShape::same(8, 10, 10, 3);
  const TuckerRanks ranks{5, 6};
  const Tensor kernel =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const TuckerFactors factors = tucker_decompose(kernel, ranks);

  // The fp32 twin of the same factors is the accuracy baseline — the
  // quantized pipeline approximates the decomposed computation, not the
  // original kernel.
  TuckerDescriptor fdesc;
  fdesc.shape = shape;
  fdesc.exec = TuckerExec::kStaged;
  fdesc.core_algo = ConvAlgo::kIm2col;
  const auto fp32_plan = compile_tucker_plan(fdesc, factors);
  const Tensor want = fp32_plan->run(x);

  // Calibrate z1/z2 exactly as calibrate_quant does: fp32 intermediates of
  // this input.
  const ConvShape core = core_conv_shape(shape, ranks);
  const std::int64_t hw = shape.h * shape.w;
  std::vector<float> z1(static_cast<std::size_t>(ranks.d1 * hw));
  gemm_at(ranks.d1, hw, shape.c,
          std::span<const float>(factors.u1.raw(),
                                 static_cast<std::size_t>(shape.c * ranks.d1)),
          std::span<const float>(x.raw(), static_cast<std::size_t>(x.numel())),
          std::span<float>(z1));
  ConvDescriptor cdesc;
  cdesc.shape = core;
  cdesc.algo = ConvAlgo::kIm2col;
  const auto core_plan = compile_conv_plan(cdesc, factors.core);
  Tensor z1t({core.c, core.h, core.w});
  std::copy(z1.begin(), z1.end(), z1t.raw());
  const Tensor z2 = core_plan->run(z1t);

  LayerQuant quant;
  quant.quantize = true;
  quant.input = observe_params(x.raw(), x.numel());
  quant.z1 = observe_params(z1.data(), static_cast<std::int64_t>(z1.size()));
  quant.z2 = observe_params(z2.raw(), z2.numel());

  const auto plan = compile_quantized_tucker_plan(shape, factors, quant);
  EXPECT_TRUE(plan->quantized());
  EXPECT_TRUE(plan->decomposed());
  EXPECT_EQ(plan->shape(), shape);

  PoisonedWorkspace ws(plan->workspace_bytes());
  Tensor y({shape.n, shape.out_h(), shape.out_w()});
  plan->run(x, &y, ws.span());
  EXPECT_TRUE(ws.guards_intact());
  EXPECT_TRUE(all_finite(y));
  // Three chained 7-bit stages compound error; the pipeline must still track
  // its fp32 twin closely in relative terms.
  EXPECT_LT(Tensor::rel_error(y, want), 0.15);

  const int saved = num_threads();
  for (const int nt : {1, 4}) {
    set_num_threads(nt);
    ws.poison();
    Tensor again({shape.n, shape.out_h(), shape.out_w()});
    plan->run(x, &again, ws.span());
    EXPECT_EQ(Tensor::max_abs_diff(y, again), 0.0) << "threads=" << nt;
  }
  set_num_threads(saved);
}

TEST(Quantize, CalibrationCoversEveryConvAndIsDeterministic) {
  ModelSpec model;
  model.name = "calib-tiny";
  model.layers.push_back(
      LayerSpec::make_conv("conv0", ConvShape::same(3, 6, 12, 3)));
  model.layers.push_back(
      LayerSpec::make_conv("conv1", ConvShape::same(6, 6, 12, 3)));
  model.layers.push_back(LayerSpec::make_elementwise("relu", 6.0 * 12 * 12));
  model.layers.push_back(
      LayerSpec::make_conv("conv2", ConvShape::same(6, 4, 12, 3)));
  const auto weights = random_model_weights(model, 7008);

  CalibrationOptions opts;
  opts.samples = 2;
  const QuantTable table =
      calibrate_quant(make_a100(), model, weights, {}, opts);
  ASSERT_EQ(table.layers.size(), model.layers.size());
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    if (model.layers[i].kind == LayerKind::kConv) {
      EXPECT_TRUE(table.layers[i].quantize) << i;
      EXPECT_GT(table.layers[i].input.scale, 0.0f) << i;
    } else {
      EXPECT_FALSE(table.layers[i].quantize) << i;
    }
  }

  const QuantTable again =
      calibrate_quant(make_a100(), model, weights, {}, opts);
  for (std::size_t i = 0; i < table.layers.size(); ++i) {
    EXPECT_EQ(quant_fingerprint(table.layers[i]),
              quant_fingerprint(again.layers[i]))
        << i;
  }
  // Different calibrations must not alias in cache keys.
  CalibrationOptions other = opts;
  other.seed = 99;
  const QuantTable shifted =
      calibrate_quant(make_a100(), model, weights, {}, other);
  EXPECT_NE(quant_fingerprint(table.layers[0]),
            quant_fingerprint(shifted.layers[0]));
}

// A small chain of 3×3 convolutions on hw × hw images; decisions (one per
// decomposable conv) decompose conv1 and conv2 at `ranks1` / `ranks2` and
// keep conv0 dense.
ModelSpec tucker_tiny_model(std::int64_t hw = 12) {
  ModelSpec model;
  model.name = "tucker-tiny";
  model.layers.push_back(
      LayerSpec::make_conv("conv0", ConvShape::same(3, 8, hw, 3)));
  model.layers.push_back(
      LayerSpec::make_conv("conv1", ConvShape::same(8, 8, hw, 3)));
  model.layers.push_back(LayerSpec::make_elementwise(
      "relu", 8.0 * static_cast<double>(hw * hw)));
  model.layers.push_back(
      LayerSpec::make_conv("conv2", ConvShape::same(8, 6, hw, 3)));
  return model;
}

std::vector<LayerDecision> tucker_tiny_decisions(const ModelSpec& model,
                                                 TuckerRanks ranks1,
                                                 TuckerRanks ranks2) {
  std::vector<LayerDecision> decisions;
  for (const ConvShape& shape : model.decomposable_conv_shapes()) {
    LayerDecision d;
    d.shape = shape;
    decisions.push_back(d);
  }
  decisions[1].decomposed = true;
  decisions[1].ranks = ranks1;
  decisions[2].decomposed = true;
  decisions[2].ranks = ranks2;
  return decisions;
}

QuantTable without_factors(QuantTable table) {
  for (LayerQuant& q : table.layers) {
    q.factors.reset();
  }
  return table;
}

// Compiles privately (no PlanCache, so every session really compiles its
// own Tucker plans) and runs the same requests through it.
std::vector<Tensor> serve_requests(const ModelSpec& model,
                                   const std::vector<LayerWeights>& weights,
                                   const std::vector<LayerDecision>& decisions,
                                   const QuantTable& table) {
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  options.use_plan_cache = false;
  options.quant = &table;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, decisions, options);
  Rng rng(7020);
  std::vector<Tensor> outputs;
  for (int r = 0; r < 3; ++r) {
    outputs.push_back(
        session.run(Tensor::random_uniform({3, 12, 12}, rng, -1.0f, 1.0f)));
  }
  return outputs;
}

void expect_bitwise_equal(const std::vector<Tensor>& a,
                          const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(Tensor::max_abs_diff(a[r], b[r]), 0.0) << "request " << r;
  }
}

TEST(Quantize, CalibrationFactorsFeedTheCompileBitwise) {
  const ModelSpec model = tucker_tiny_model();
  const auto weights = random_model_weights(model, 7021);
  const auto decisions = tucker_tiny_decisions(model, {4, 4}, {4, 3});
  CalibrationOptions opts;
  opts.samples = 2;
  const QuantTable table =
      calibrate_quant(make_a100(), model, weights, decisions, opts);

  // The table keeps exactly the decomposed layers' factors, tagged with
  // their kernel and ranks, and they are the deterministic decomposition.
  EXPECT_EQ(table.layers[0].factors, nullptr);
  EXPECT_EQ(table.layers[2].factors, nullptr);
  for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
    const LayerQuant& q = table.layers[i];
    ASSERT_NE(q.factors, nullptr) << i;
    EXPECT_EQ(q.factors_kernel, tensor_fingerprint(weights[i].conv_kernel));
    const TuckerRanks ranks = decisions[i == 1 ? 1 : 2].ranks;
    EXPECT_EQ(q.factors->ranks(), ranks);
    const TuckerFactors fresh = tucker_decompose(weights[i].conv_kernel, ranks);
    EXPECT_EQ(Tensor::max_abs_diff(q.factors->core, fresh.core), 0.0);
    EXPECT_EQ(Tensor::max_abs_diff(q.factors->u1, fresh.u1), 0.0);
    EXPECT_EQ(Tensor::max_abs_diff(q.factors->u2, fresh.u2), 0.0);
  }

  // Handed-off factors serve bitwise what a fresh decomposition serves, in
  // int8 (forced) and in fp32 (int8 off: the factors still feed the fp32
  // Tucker compile).
  const QuantTable cleared = without_factors(table);
  for (const char* mode : {"2", "0"}) {
    ::setenv("TDC_INT8", mode, 1);
    expect_bitwise_equal(serve_requests(model, weights, decisions, table),
                         serve_requests(model, weights, decisions, cleared));
  }

  // The hand-off is live: factors of another kernel under this kernel's
  // tags change what the session serves.
  ::setenv("TDC_INT8", "2", 1);
  QuantTable swapped = table;
  Tensor other_kernel = weights[1].conv_kernel;
  other_kernel[0] += 0.5f;
  swapped.layers[1].factors = std::make_shared<const TuckerFactors>(
      tucker_decompose(other_kernel, decisions[1].ranks));
  const std::vector<Tensor> reference =
      serve_requests(model, weights, decisions, cleared);
  const std::vector<Tensor> poisoned =
      serve_requests(model, weights, decisions, swapped);
  EXPECT_GT(Tensor::max_abs_diff(reference[0], poisoned[0]), 0.0);
  ::unsetenv("TDC_INT8");
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Calibration fans its decompositions and samples out as jobs; the table,
// factors included, must not depend on how many threads ran them, on the
// arena split, or on how the samples fall into waves. 40×40 images give
// 12800-value conv inputs, so the percentile subsample strides by 3, and
// 17 samples outgrow the percentile cap, so the merge order decides which
// values thinning keeps.
TEST(Quantize, CalibrationIsBitwiseAcrossThreadsWidthsAndSamples) {
  const ModelSpec model = tucker_tiny_model(40);
  const auto weights = random_model_weights(model, 7031);
  const auto decisions = tucker_tiny_decisions(model, {4, 4}, {4, 3});
  const int saved_threads = num_threads();
  const ArenaConfig saved_arenas = arena_config();
  for (const CalibMethod method :
       {CalibMethod::kMinMax, CalibMethod::kPercentile}) {
    for (const std::int64_t samples : {1, 3, 4, 5, 9, 17}) {
      CalibrationOptions opts;
      opts.method = method;
      opts.samples = samples;
      std::optional<QuantTable> reference;
      for (const int nt : {1, 4}) {
        for (const int intra_op : {1, 0}) {
          set_num_threads(nt);
          set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = intra_op});
          const QuantTable table =
              calibrate_quant(make_a100(), model, weights, decisions, opts);
          if (!reference) {
            reference = table;
            continue;
          }
          const std::string where =
              std::string(method == CalibMethod::kMinMax ? "minmax"
                                                         : "percentile") +
              " samples=" + std::to_string(samples) +
              " threads=" + std::to_string(nt) +
              " intra_op=" + std::to_string(intra_op);
          ASSERT_EQ(table.layers.size(), reference->layers.size());
          for (std::size_t i = 0; i < table.layers.size(); ++i) {
            const LayerQuant& a = table.layers[i];
            const LayerQuant& b = reference->layers[i];
            EXPECT_EQ(quant_fingerprint(a), quant_fingerprint(b))
                << where << " layer " << i;
            ASSERT_EQ(a.factors == nullptr, b.factors == nullptr) << where;
            if (a.factors != nullptr) {
              EXPECT_TRUE(same_bytes(a.factors->u1, b.factors->u1)) << where;
              EXPECT_TRUE(same_bytes(a.factors->u2, b.factors->u2)) << where;
              EXPECT_TRUE(same_bytes(a.factors->core, b.factors->core))
                  << where;
            }
          }
        }
      }
    }
  }
  set_num_threads(saved_threads);
  set_arena_config(saved_arenas);
}

// The fp32 session calibration drives is private: it never enters
// the process-wide PlanCache.
TEST(Quantize, CalibrationLeavesThePlanCacheAlone) {
  const ModelSpec model = tucker_tiny_model();
  const auto weights = random_model_weights(model, 7032);
  const auto decisions = tucker_tiny_decisions(model, {4, 4}, {4, 3});
  CalibrationOptions opts;
  opts.samples = 2;
  const PlanCache::Stats before = PlanCache::instance().stats();
  (void)calibrate_quant(make_a100(), model, weights, decisions, opts);
  const PlanCache::Stats after = PlanCache::instance().stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.misses, before.misses);
}

// Running min/max of a tensor over every calibration sample.
struct RangeOf {
  void observe(const Tensor& t) { obs.observe(t.raw(), t.numel()); }
  MinMaxObserver obs;
};

// A staged fp32 session of `model` at im2col everywhere, built from the
// factors `table` holds (every layer served fp32), outside the PlanCache.
InferenceSession staged_fp32_session(const ModelSpec& model,
                                     const std::vector<LayerWeights>& weights,
                                     const std::vector<LayerDecision>& decisions,
                                     const QuantTable& table) {
  QuantTable fp32 = table;
  fp32.layers.resize(model.layers.size());
  for (LayerQuant& q : fp32.layers) {
    q.quantize = false;
  }
  SessionOptions options;
  options.tucker_exec = TuckerExec::kStaged;
  options.tucker_core_algo = ConvAlgo::kIm2col;
  options.dense_algo = ConvAlgo::kIm2col;
  options.use_plan_cache = false;
  options.quant = &fp32;
  return InferenceSession::compile(make_a100(), model, weights, decisions,
                                   options);
}

// Calibration observes the Tucker model that serves, not a dense stand-in.
// conv2's input range is exactly the one a staged fp32 session built from
// the table's own factors produces. conv1's Z1 and Z2 ranges are those of
// U1ᵀ·X and of the core convolution over it, recomputed here with a naive
// double-accumulating GEMM and the reference convolution (so equal up to
// fp32 rounding).
TEST(Quantize, CalibrationObservesTheServedTuckerModel) {
  const ModelSpec model = tucker_tiny_model();
  const auto weights = random_model_weights(model, 7033);
  const auto decisions = tucker_tiny_decisions(model, {4, 4}, {4, 3});
  CalibrationOptions opts;
  opts.method = CalibMethod::kMinMax;
  opts.samples = 3;
  const QuantTable table =
      calibrate_quant(make_a100(), model, weights, decisions, opts);
  ASSERT_NE(table.layers[1].factors, nullptr);
  const TuckerFactors& f1 = *table.layers[1].factors;
  const TuckerRanks r1 = f1.ranks();
  const ConvShape& s1 = model.layers[1].conv;

  // conv0 alone gives conv1's input; conv0, conv1 and the ReLU give
  // conv2's. Decisions align with the decomposable convs each one keeps.
  const auto prefix = [&](std::size_t layers, std::size_t convs) {
    ModelSpec m = model;
    m.layers.resize(layers);
    std::vector<LayerDecision> d(decisions.begin(),
                                 decisions.begin() +
                                     static_cast<std::ptrdiff_t>(convs));
    return staged_fp32_session(
        m,
        std::vector<LayerWeights>(
            weights.begin(),
            weights.begin() + static_cast<std::ptrdiff_t>(layers)),
        d, table);
  };
  const InferenceSession conv0 = prefix(1, 1);
  const InferenceSession through_relu = prefix(3, 2);

  // The samples calibration drew: opts.seed's stream, in order.
  Rng rng(opts.seed);
  RangeOf conv2_in, z1_range, z2_range;
  const std::int64_t hw = s1.h * s1.w;
  const ConvShape core = core_conv_shape(s1, r1);
  for (std::int64_t s = 0; s < opts.samples; ++s) {
    const Tensor x = Tensor::random_uniform({3, 12, 12}, rng, -1.0f, 1.0f);
    conv2_in.observe(through_relu.run(x));
    const Tensor x1 = conv0.run(x);
    // Z1[d, p] = Σ_c U1[c, d] · X[c, p].
    Tensor z1({r1.d1, s1.h, s1.w});
    for (std::int64_t d = 0; d < r1.d1; ++d) {
      for (std::int64_t p = 0; p < hw; ++p) {
        double acc = 0.0;
        for (std::int64_t c = 0; c < s1.c; ++c) {
          acc += static_cast<double>(f1.u1[c * r1.d1 + d]) *
                 static_cast<double>(x1[c * hw + p]);
        }
        z1[d * hw + p] = static_cast<float>(acc);
      }
    }
    z1_range.observe(z1);
    z2_range.observe(conv2d_reference(z1, f1.core, core));
  }

  const QuantParams in2 = conv2_in.obs.params();
  EXPECT_EQ(table.layers[3].input.scale, in2.scale);
  EXPECT_EQ(table.layers[3].input.zero_point, in2.zero_point);
  const auto expect_close = [](const QuantParams& got,
                               const QuantParams& want, const char* what) {
    EXPECT_NEAR(got.scale, want.scale, 1e-5 * want.scale) << what;
    EXPECT_NEAR(got.zero_point, want.zero_point, 1) << what;
  };
  expect_close(table.layers[1].z1, z1_range.obs.params(), "z1");
  expect_close(table.layers[1].z2, z2_range.obs.params(), "z2");
}

TEST(Quantize, MismatchedCalibrationFactorsAreIgnored) {
  const ModelSpec model = tucker_tiny_model();
  const auto weights = random_model_weights(model, 7022);
  const auto decisions = tucker_tiny_decisions(model, {4, 4}, {4, 3});
  CalibrationOptions opts;
  opts.samples = 2;
  ::setenv("TDC_INT8", "2", 1);

  // Calibrated on other weights of the same shapes: every factor's kernel
  // tag mismatches, so the compile decomposes this model's kernels.
  const auto other_weights = random_model_weights(model, 7023);
  const QuantTable foreign =
      calibrate_quant(make_a100(), model, other_weights, decisions, opts);
  ASSERT_NE(foreign.layers[1].factors, nullptr);
  expect_bitwise_equal(
      serve_requests(model, weights, decisions, foreign),
      serve_requests(model, weights, decisions, without_factors(foreign)));

  // Calibrated on these weights at other ranks: the rank tag mismatches.
  const QuantTable own =
      calibrate_quant(make_a100(), model, weights, decisions, opts);
  const auto reranked = tucker_tiny_decisions(model, {3, 4}, {4, 2});
  expect_bitwise_equal(
      serve_requests(model, weights, reranked, own),
      serve_requests(model, weights, reranked, without_factors(own)));
  ::unsetenv("TDC_INT8");
}

TEST(Quantize, CalibrationRejectsMisalignedDecisionsLikeCompile) {
  const ModelSpec model = tucker_tiny_model();
  const auto weights = random_model_weights(model, 7024);
  auto decisions = tucker_tiny_decisions(model, {4, 4}, {4, 3});
  decisions[1].shape = ConvShape::same(8, 8, 10, 3);  // wrong spatial size

  const auto error_code = [](const auto& call) {
    try {
      call();
    } catch (const Error& e) {
      return e.code();
    }
    ADD_FAILURE() << "expected a tdc::Error";
    return ErrorCode::kInternal;
  };
  EXPECT_EQ(error_code([&] {
              calibrate_quant(make_a100(), model, weights, decisions);
            }),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(error_code([&] {
              InferenceSession::compile(make_a100(), model, weights,
                                        decisions);
            }),
            ErrorCode::kInvalidArgument);
}

// The acceptance walk: calibrated mixed-precision full-width ResNet-18 —
// codesign decisions, int8 forced onto every calibrated layer — served
// through the replica fleet with allocation and workspace guards armed,
// bitwise-identical to a plain session and across thread counts.
TEST(QuantizedServing, MixedPrecisionResnet18ThroughServer) {
  const DeviceSpec device = make_a100();
  const ModelSpec model = make_resnet18();
  const auto weights = random_model_weights(model, 7010);

  CodesignOptions cd_opts;
  cd_opts.budget = 0.65;
  const CodesignResult codesign =
      run_codesign(device, model.decomposable_conv_shapes(), cd_opts);
  const std::vector<LayerDecision>& decisions = codesign.layers;

  CalibrationOptions calib;
  calib.samples = 1;
  const QuantTable table =
      calibrate_quant(device, model, weights, decisions, calib);

  ::setenv("TDC_INT8", "2", 1);  // force int8 for every calibrated layer
  const bool saved_ws_guard = workspace_guard_enabled();
  const bool saved_alloc_guard = alloc_guard_enabled();
  set_workspace_guard(true);
  set_alloc_guard(true);
  const std::int64_t violations_before = alloc_guard_violations();

  SessionOptions session_options;
  session_options.dense_algo = ConvAlgo::kIm2col;
  session_options.quant = &table;

  const InferenceSession session = InferenceSession::compile(
      device, model, weights, decisions, session_options);
  std::int64_t quantized_ops = 0;
  std::int64_t decomposed_quantized = 0;
  for (std::int64_t i = 0; i < session.num_ops(); ++i) {
    const auto* conv = dynamic_cast<const ConvPlan*>(&session.op(i));
    if (conv != nullptr && conv->quantized()) {
      ++quantized_ops;
      decomposed_quantized += conv->decomposed() ? 1 : 0;
    }
  }
  EXPECT_GT(quantized_ops, 0);
  EXPECT_GT(decomposed_quantized, 0);  // the Tucker stages quantize too

  Rng rng(7011);
  const Tensor x = Tensor::random_uniform({3, 224, 224}, rng);
  PoisonedWorkspace ws(session.workspace_bytes());
  Tensor y({1000, 1, 1});
  session.run(x, &y, ws.span());
  EXPECT_TRUE(ws.guards_intact());
  EXPECT_TRUE(all_finite(y));

  const int saved_threads = num_threads();
  for (const int nt : {1, 4}) {
    set_num_threads(nt);
    ws.poison();
    Tensor again({1000, 1, 1});
    session.run(x, &again, ws.span());
    EXPECT_EQ(Tensor::max_abs_diff(y, again), 0.0) << "threads=" << nt;
  }
  set_num_threads(saved_threads);

  // Through the fleet: replicas share the session's cached plans, so the
  // server answer is bitwise the session answer.
  ServerOptions server_options;
  server_options.replicas = 2;
  server_options.session = session_options;
  InferenceServer server = InferenceServer::compile(device, model, weights,
                                                    decisions, server_options);
  const Tensor served = server.infer(x);
  EXPECT_EQ(Tensor::max_abs_diff(served, y), 0.0);

  EXPECT_EQ(alloc_guard_violations(), violations_before);
  set_alloc_guard(saved_alloc_guard);
  set_workspace_guard(saved_ws_guard);
  ::unsetenv("TDC_INT8");
}

}  // namespace
}  // namespace tdc
