// Tests for the CPU execution engine: the packed-panel GEMM against a naive
// triple-loop oracle, its 6×32 pair tile against one-sliver-at-a-time
// products, the fused Tucker pipeline against the staged one, and
// determinism of both across thread counts, intra-op widths and workspaces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/alloc_guard.h"
#include "common/check.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "conv/conv.h"
#include "exec/conv_plan.h"
#include "linalg/gemm.h"
#include "linalg/gemm_s8.h"
#include "tucker/tucker.h"

namespace tdc {
namespace {

// Exact-order naive oracle: C = alpha·op(A)·op(B) + beta·C.
void gemm_naive(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::vector<float>& a, bool trans_a,
                const std::vector<float>& b, bool trans_b,
                std::vector<float>* c, float alpha, float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = trans_a ? a[static_cast<std::size_t>(kk * m + i)]
                                 : a[static_cast<std::size_t>(i * k + kk)];
        const float bv = trans_b ? b[static_cast<std::size_t>(j * k + kk)]
                                 : b[static_cast<std::size_t>(kk * n + j)];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      float& slot = (*c)[static_cast<std::size_t>(i * n + j)];
      slot = static_cast<float>(alpha * acc + beta * slot);
    }
  }
}

std::vector<float> random_vec(std::size_t size, Rng& rng) {
  std::vector<float> v(size);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return m;
}

struct GemmSize {
  std::int64_t m, n, k;
};

// Odd, prime, sub-tile and multi-panel sizes: every ragged-edge path of the
// packed kernel (MR=6, NR=16, MC=120, KC=256) gets exercised.
const GemmSize kSizes[] = {
    {1, 1, 1},   {2, 3, 4},    {5, 7, 3},     {6, 16, 8},  {7, 17, 19},
    {13, 1, 31}, {1, 37, 2},   {23, 29, 31},  {64, 64, 64}, {97, 101, 103},
    {6, 16, 256}, {12, 32, 257}, {121, 17, 5}, {130, 40, 300},
    {130, 85, 300},
};

const float kAlphaBeta[][2] = {{1.0f, 0.0f}, {2.0f, 0.0f}, {0.5f, 1.0f},
                               {-1.5f, 0.75f}, {0.0f, 2.0f}};

TEST(PackedGemm, MatchesNaiveOracle) {
  Rng rng(1234);
  for (const GemmSize& sz : kSizes) {
    for (const auto& ab : kAlphaBeta) {
      const auto a = random_vec(static_cast<std::size_t>(sz.m * sz.k), rng);
      const auto b = random_vec(static_cast<std::size_t>(sz.k * sz.n), rng);
      auto c = random_vec(static_cast<std::size_t>(sz.m * sz.n), rng);
      auto expected = c;
      gemm_naive(sz.m, sz.n, sz.k, a, false, b, false, &expected, ab[0], ab[1]);
      gemm(sz.m, sz.n, sz.k, a, b, c, ab[0], ab[1]);
      EXPECT_LT(max_abs_diff(c, expected), 1e-3)
          << "m=" << sz.m << " n=" << sz.n << " k=" << sz.k
          << " alpha=" << ab[0] << " beta=" << ab[1];
    }
  }
}

TEST(PackedGemm, TransAMatchesNaiveOracle) {
  Rng rng(2345);
  for (const GemmSize& sz : kSizes) {
    for (const auto& ab : kAlphaBeta) {
      const auto a = random_vec(static_cast<std::size_t>(sz.k * sz.m), rng);
      const auto b = random_vec(static_cast<std::size_t>(sz.k * sz.n), rng);
      auto c = random_vec(static_cast<std::size_t>(sz.m * sz.n), rng);
      auto expected = c;
      gemm_naive(sz.m, sz.n, sz.k, a, true, b, false, &expected, ab[0], ab[1]);
      gemm_at(sz.m, sz.n, sz.k, a, b, c, ab[0], ab[1]);
      EXPECT_LT(max_abs_diff(c, expected), 1e-3)
          << "m=" << sz.m << " n=" << sz.n << " k=" << sz.k;
    }
  }
}

TEST(PackedGemm, TransBMatchesNaiveOracle) {
  Rng rng(3456);
  for (const GemmSize& sz : kSizes) {
    for (const auto& ab : kAlphaBeta) {
      const auto a = random_vec(static_cast<std::size_t>(sz.m * sz.k), rng);
      const auto b = random_vec(static_cast<std::size_t>(sz.n * sz.k), rng);
      auto c = random_vec(static_cast<std::size_t>(sz.m * sz.n), rng);
      auto expected = c;
      gemm_naive(sz.m, sz.n, sz.k, a, false, b, true, &expected, ab[0], ab[1]);
      gemm_bt(sz.m, sz.n, sz.k, a, b, c, ab[0], ab[1]);
      EXPECT_LT(max_abs_diff(c, expected), 1e-3)
          << "m=" << sz.m << " n=" << sz.n << " k=" << sz.k;
    }
  }
}

TEST(PackedGemm, DeterministicAcrossThreadCounts) {
  const int saved = num_threads();
  Rng rng(5678);
  const std::int64_t m = 250, n = 90, k = 300;
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  auto run = [&](int nt) {
    set_num_threads(nt);
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemm(m, n, k, a, b, c);
    return c;
  };
  const auto serial = run(1);
  const auto threaded = run(6);
  set_num_threads(saved);
  // Chunks own whole MR×NR tiles and walk the K blocks in order, so every
  // tile sees the same micro-kernel calls at any width — bitwise equal.
  EXPECT_EQ(serial, threaded);
}

TEST(PackedGemm, PrepackedAIsBitIdenticalToPackOnTheFly) {
  Rng rng(6780);
  for (const GemmSize& sz : kSizes) {
    const auto a = random_vec(static_cast<std::size_t>(sz.m * sz.k), rng);
    const auto b = random_vec(static_cast<std::size_t>(sz.k * sz.n), rng);
    std::vector<float> c_ref(static_cast<std::size_t>(sz.m * sz.n));
    std::vector<float> c_pre(static_cast<std::size_t>(sz.m * sz.n));
    gemm(sz.m, sz.n, sz.k, a, b, c_ref);
    const PackedGemmA packed = pack_gemm_a(sz.m, sz.k, a.data(), sz.k, 1);
    gemm_prepacked(packed, sz.n, b.data(), sz.n, 1, c_pre.data(), sz.n);
    EXPECT_EQ(c_ref, c_pre) << "m=" << sz.m << " n=" << sz.n << " k=" << sz.k;
  }
}

TEST(PackedGemm, PrepackedTransposedAMatchesGemmAt) {
  Rng rng(6781);
  const std::int64_t m = 37, n = 53, k = 130;
  const auto a = random_vec(static_cast<std::size_t>(k * m), rng);  // [K, M]
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c_at(static_cast<std::size_t>(m * n));
  std::vector<float> c_pre(static_cast<std::size_t>(m * n));
  gemm_at(m, n, k, a, b, c_at);
  // Reading the [K, M] array as A^T is the (1, m) stride pair.
  const PackedGemmA packed = pack_gemm_a(m, k, a.data(), 1, m);
  gemm_prepacked(packed, n, b.data(), n, 1, c_pre.data(), n);
  EXPECT_EQ(c_at, c_pre);
}

// ---------------------------------------------------------------------------
// The tile split across thread counts and arena widths. gemm_packed cuts C
// into tile-aligned rectangles by region_width(), so every (num_threads,
// intra_op) pair below picks a different row/column split; each must be
// bitwise equal to the one-thread result.

// Sets the thread count and arena split per case; restores the thread count
// and the env/default arena resolution after.
class GemmSplitTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = num_threads(); }
  void TearDown() override {
    set_num_threads(saved_threads_);
    set_arena_config(ArenaConfig{});
  }
  static void configure(int threads, int intra_op) {
    set_num_threads(threads);
    set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = intra_op});
  }
  int saved_threads_ = 1;
};

// One operand layout of the split matrix. Every variant writes through
// gemm_strided or gemm_prepacked with ldc >= n.
enum class GemmLayout {
  kPlain,       // row-major A, B; ldc = n; beta = 0
  kPrepackedA,  // plan-time packed A; ldc = n + 5; beta = 1
  kTransposed,  // A stored [K, M], B stored [N, K]; ldc = n + 3; beta = 0.5
};

struct SplitCase {
  std::int64_t m, n, k;
  GemmLayout layout;
};

struct SplitOperands {
  SplitOperands(const SplitCase& sc, Rng& rng)
      : sc(sc),
        ldc(sc.layout == GemmLayout::kPlain
                ? sc.n
                : sc.n + (sc.layout == GemmLayout::kPrepackedA ? 5 : 3)),
        beta(sc.layout == GemmLayout::kPlain
                 ? 0.0f
                 : (sc.layout == GemmLayout::kPrepackedA ? 1.0f : 0.5f)),
        a(random_vec(static_cast<std::size_t>(sc.m * sc.k), rng)),
        b(random_vec(static_cast<std::size_t>(sc.k * sc.n), rng)),
        c0(random_vec(static_cast<std::size_t>(sc.m * ldc), rng)) {
    if (sc.layout == GemmLayout::kPrepackedA) {
      packed = pack_gemm_a(sc.m, sc.k, a.data(), sc.k, 1);
    }
  }

  bool transposed() const { return sc.layout == GemmLayout::kTransposed; }

  // C = alpha·A·B + beta·C0 through the layout's entry point.
  std::vector<float> run(float alpha) const {
    std::vector<float> c = c0;
    if (sc.layout == GemmLayout::kPrepackedA) {
      gemm_prepacked(packed, sc.n, b.data(), sc.n, 1, c.data(), ldc, alpha,
                     beta);
    } else if (transposed()) {
      gemm_strided(sc.m, sc.n, sc.k, a.data(), 1, sc.m, b.data(), 1, sc.k,
                   c.data(), ldc, alpha, beta);
    } else {
      gemm_strided(sc.m, sc.n, sc.k, a.data(), sc.k, 1, b.data(), sc.n, 1,
                   c.data(), ldc, alpha, beta);
    }
    return c;
  }

  // Largest deviation from the naive oracle over the live [m, n] window;
  // the ldc padding columns must keep their initial values exactly.
  double oracle_error(const std::vector<float>& c, float alpha) const {
    std::vector<float> expected(static_cast<std::size_t>(sc.m * sc.n));
    for (std::int64_t i = 0; i < sc.m; ++i) {
      for (std::int64_t j = 0; j < sc.n; ++j) {
        expected[static_cast<std::size_t>(i * sc.n + j)] =
            c0[static_cast<std::size_t>(i * ldc + j)];
      }
    }
    gemm_naive(sc.m, sc.n, sc.k, a, transposed(), b, transposed(), &expected,
               alpha, beta);
    double err = 0.0;
    for (std::int64_t i = 0; i < sc.m; ++i) {
      for (std::int64_t j = 0; j < ldc; ++j) {
        const auto at = static_cast<std::size_t>(i * ldc + j);
        if (j >= sc.n) {
          if (c[at] != c0[at]) {
            return std::numeric_limits<double>::infinity();
          }
          continue;
        }
        err = std::max(
            err, static_cast<double>(std::abs(
                     c[at] - expected[static_cast<std::size_t>(i * sc.n + j)])));
      }
    }
    return err;
  }

  SplitCase sc;
  std::int64_t ldc;
  float beta;
  std::vector<float> a, b, c0;
  PackedGemmA packed;
};

// The batch-1 shapes of the engine: row counts from one MR sliver to
// several MC panels, column counts from one ragged NR sliver to a full
// 56×56 plane. K crosses the KC = 256 block edge where the product stays
// small enough for a quick suite.
std::vector<SplitCase> split_cases() {
  std::vector<SplitCase> cases;
  const std::int64_t ms[] = {1, 6, 32, 64, 128, 130, 512};
  const std::int64_t ns[] = {1, 15, 16, 17, 49, 896, 3136};
  const GemmLayout layouts[] = {GemmLayout::kPlain, GemmLayout::kPrepackedA,
                                GemmLayout::kTransposed};
  std::size_t i = 0;
  for (const std::int64_t m : ms) {
    for (const std::int64_t n : ns) {
      const std::int64_t k = m * n <= 64 * 896 ? 260 : 24;
      cases.push_back({m, n, k, layouts[i++ % 3]});
    }
  }
  return cases;
}

TEST_F(GemmSplitTest, BitwiseAcrossThreadsAndArenaWidths) {
  Rng rng(9100);
  constexpr float kAlpha = 0.75f;
  for (const SplitCase& sc : split_cases()) {
    const SplitOperands ops(sc, rng);
    configure(1, 1);
    const std::vector<float> serial = ops.run(kAlpha);
    ASSERT_LT(ops.oracle_error(serial, kAlpha), 1e-3)
        << "m=" << sc.m << " n=" << sc.n << " k=" << sc.k;
    for (const int threads : {1, 2, 3, 4}) {
      for (const int intra_op : {1, 2, 0}) {
        configure(threads, intra_op);
        EXPECT_EQ(ops.run(kAlpha), serial)
            << "m=" << sc.m << " n=" << sc.n << " k=" << sc.k
            << " layout=" << static_cast<int>(sc.layout)
            << " threads=" << threads << " intra_op=" << intra_op;
      }
    }
  }
}

// gemm_strided_lower is the full product minus the tiles above the
// diagonal: on and below it every entry must be bitwise gemm_strided's, at
// every split. Sizes cross the MR, NR, MC and NC (1024) edges, and K the KC
// edge; A·A^T through the transposed B strides is the Gram the SVD builds.
TEST_F(GemmSplitTest, LowerTriangleMatchesFullProductBitwise) {
  Rng rng(9150);
  constexpr float kAlpha = 0.75f;
  constexpr float kBeta = 0.5f;
  for (const auto& [m, k] : {std::pair<std::int64_t, std::int64_t>{1, 3},
                             {7, 260},
                             {33, 17},
                             {130, 300},
                             {257, 40},
                             {1030, 5}}) {
    const std::int64_t ldc = m + 3;
    const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
    const auto c0 = random_vec(static_cast<std::size_t>(m * ldc), rng);
    configure(1, 1);
    std::vector<float> full = c0;
    gemm_strided(m, m, k, a.data(), k, 1, a.data(), 1, k, full.data(), ldc,
                 kAlpha, kBeta);
    for (const int threads : {1, 2, 4}) {
      for (const int intra_op : {1, 2, 0}) {
        configure(threads, intra_op);
        std::vector<float> lower = c0;
        gemm_strided_lower(m, k, a.data(), k, 1, a.data(), 1, k, lower.data(),
                           ldc, kAlpha, kBeta);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j <= i; ++j) {
            const auto at = static_cast<std::size_t>(i * ldc + j);
            ASSERT_EQ(lower[at], full[at])
                << "m=" << m << " k=" << k << " (" << i << ", " << j
                << ") threads=" << threads << " intra_op=" << intra_op;
          }
          // The ldc padding stays untouched.
          for (std::int64_t j = m; j < ldc; ++j) {
            const auto at = static_cast<std::size_t>(i * ldc + j);
            ASSERT_EQ(lower[at], c0[at]) << "m=" << m << " row " << i;
          }
        }
      }
    }
  }
}

TEST_F(GemmSplitTest, WarmSplitCallAllocatesNothing) {
  const bool saved_guard = alloc_guard_enabled();
  configure(4, 0);
  Rng rng(9200);
  const SplitOperands plain({64, 896, 300, GemmLayout::kPlain}, rng);
  const SplitOperands packed({130, 3136, 40, GemmLayout::kPrepackedA}, rng);
  std::vector<float> c_plain = plain.c0;
  std::vector<float> c_packed = packed.c0;
  const auto run_both = [&] {
    gemm_strided(64, 896, 300, plain.a.data(), 300, 1, plain.b.data(), 896, 1,
                 c_plain.data(), plain.ldc);
    gemm_prepacked(packed.packed, 3136, packed.b.data(), 3136, 1,
                   c_packed.data(), packed.ldc, 1.0f, packed.beta);
  };
  // Warm every pool worker's pack buffers: which worker serves which chunk
  // is not fixed, so a few rounds let each one grow to its steady state.
  for (int round = 0; round < 8; ++round) {
    run_both();
  }
  set_alloc_guard(true);
  const std::int64_t violations = alloc_guard_violations();
  {
    DenyAllocGuard guard("gemm split test");
    EXPECT_NO_THROW(run_both());
  }
  EXPECT_EQ(alloc_guard_violations(), violations);
  set_alloc_guard(saved_guard);
}

TEST_F(GemmSplitTest, DeadlineInsideSplitGemmThrowsOnCaller) {
  configure(4, 0);
  Rng rng(9300);
  // Deep enough to take well over the budget at any width, wide enough
  // that the region splits four ways.
  const std::int64_t m = 128, n = 3136, k = 1024;
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  bool expired = false;
  try {
    DeadlineScope scope(Deadline::after(0.001));
    gemm(m, n, k, a, b, c);
  } catch (const Error& e) {
    expired = e.code() == ErrorCode::kDeadlineExceeded;
  }
  EXPECT_TRUE(expired);
  // The runtime stays usable and the next call rewrites C from scratch.
  std::vector<float> again(c.size());
  gemm(m, n, k, a, b, again);
  configure(1, 1);
  std::vector<float> serial(c.size());
  gemm(m, n, k, a, b, serial);
  EXPECT_EQ(again, serial);
}

// ---------------------------------------------------------------------------
// The 6×32 pair tile (AVX-512 builds) must write every C entry exactly as
// the 6×16 kernel does. A product computed one 16-column sliver at a time
// never pairs slivers, so one call over all columns must match it bitwise:
// a pair kernel that reordered the FMA chain, mixed up the two B slivers or
// the epilogue would show here. The sizes cover single and partial row
// slivers, even and odd sliver counts with and without a ragged last
// sliver, two K blocks, alpha/beta ≠ 1, a prepacked A and ldc > n.
TEST(GemmTile, PairTileMatchesSingleSliverBitwise) {
  Rng rng(9400);
  constexpr std::int64_t kNr = 16;
  constexpr std::int64_t k = 300;
  constexpr float kAlpha = 0.75f;
  constexpr float kBeta = -1.25f;
  constexpr std::int32_t kZeroPoint = 37;
  for (const std::int64_t m : {1, 5, 6, 7, 32, 64, 130}) {
    const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
    const PackedGemmA packed = pack_gemm_a(m, k, a.data(), k, 1);
    std::vector<std::int8_t> a_s8(static_cast<std::size_t>(m * k));
    for (std::size_t i = 0; i < a_s8.size(); ++i) {
      a_s8[i] = static_cast<std::int8_t>(std::lround(a[i] * 127.0f));
    }
    const PackedGemmAS8 packed_s8 = pack_gemm_a_s8(m, k, a_s8.data(), k, 1);
    for (const std::int64_t n : {16, 31, 32, 33, 48, 95, 3136}) {
      const std::int64_t ldc = n + 7;
      const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
      const auto c0 = random_vec(static_cast<std::size_t>(m * ldc), rng);
      std::vector<std::uint8_t> b_u8(b.size());
      for (std::size_t i = 0; i < b.size(); ++i) {
        b_u8[i] = static_cast<std::uint8_t>(std::lround((b[i] + 1.0f) * 63.5f));
      }
      // fp32, packing A on the fly and prepacked.
      for (const bool prepacked : {false, true}) {
        const auto product = [&](std::int64_t j0, std::int64_t cols,
                                 std::vector<float>* c) {
          if (prepacked) {
            gemm_prepacked(packed, cols, b.data() + j0, n, 1, c->data() + j0,
                           ldc, kAlpha, kBeta);
          } else {
            gemm_strided(m, cols, k, a.data(), k, 1, b.data() + j0, n, 1,
                         c->data() + j0, ldc, kAlpha, kBeta);
          }
        };
        std::vector<float> whole = c0;
        product(0, n, &whole);
        std::vector<float> slivers = c0;
        for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
          product(j0, std::min(kNr, n - j0), &slivers);
        }
        ASSERT_EQ(whole, slivers)
            << "fp32 m=" << m << " n=" << n << " prepacked=" << prepacked;
      }
      // s8·u8 with a zero point: the first K block seeds the correction,
      // the second accumulates.
      std::vector<std::int32_t> whole(static_cast<std::size_t>(m * ldc), -7);
      std::vector<std::int32_t> slivers = whole;
      gemm_prepacked_s8u8(packed_s8, n, b_u8.data(), n, kZeroPoint,
                          whole.data(), ldc);
      for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
        gemm_prepacked_s8u8(packed_s8, std::min(kNr, n - j0), b_u8.data() + j0,
                            n, kZeroPoint, slivers.data() + j0, ldc);
      }
      ASSERT_EQ(whole, slivers) << "s8 m=" << m << " n=" << n;
    }
  }
}

TEST(Transpose2d, BlockedTransposeIsExact) {
  Rng rng(6789);
  const std::vector<std::pair<std::int64_t, std::int64_t>> sizes = {
      {1, 1}, {3, 5}, {31, 33}, {32, 32}, {64, 100}, {101, 67}};
  for (const auto& [rows, cols] : sizes) {
    const Tensor a = Tensor::random_uniform({rows, cols}, rng);
    const Tensor t = transpose2d(a);
    ASSERT_EQ(t.dim(0), cols);
    ASSERT_EQ(t.dim(1), rows);
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t j = 0; j < cols; ++j) {
        ASSERT_EQ(t(j, i), a(i, j)) << rows << "x" << cols;
      }
    }
  }
}

TEST(Im2colPlan, ReusedPlanMatchesFreshPlan) {
  // One compiled plan replayed over many inputs is bit-identical to a fresh
  // plan compiled for each input.
  Rng rng(7890);
  const ConvShape shape = ConvShape::same(6, 8, 11, 3, 2);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  ConvDescriptor desc;
  desc.shape = shape;
  desc.algo = ConvAlgo::kIm2col;
  const auto plan = compile_conv_plan(desc, k);
  for (int i = 0; i < 3; ++i) {
    const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
    EXPECT_EQ(Tensor::max_abs_diff(plan->run(x),
                                   compile_conv_plan(desc, k)->run(x)),
              0.0)
        << "input " << i;
  }
}

struct FusedCase {
  ConvShape shape;
  TuckerRanks ranks;
  const char* label;
};

class FusedTuckerConv : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedTuckerConv, BitLevelParityWithStagedPipeline) {
  const auto& p = GetParam();
  Rng rng(1000);
  const Tensor x =
      Tensor::random_uniform({p.shape.c, p.shape.h, p.shape.w}, rng);
  const Tensor k = Tensor::random_uniform(
      {p.shape.c, p.shape.n, p.shape.r, p.shape.s}, rng);
  const TuckerFactors f = tucker_decompose(k, p.ranks);
  const Tensor staged =
      compile_tucker_plan({.shape = p.shape, .exec = TuckerExec::kStaged}, f)
          ->run(x);
  const Tensor fused = compile_tucker_plan({.shape = p.shape}, f)->run(x);
  // The fused pipeline reorders no accumulation relative to the staged
  // im2col path, so the match is bit-level, not just within tolerance.
  EXPECT_EQ(Tensor::max_abs_diff(fused, staged), 0.0) << p.label;
}

TEST_P(FusedTuckerConv, RowTileChoiceDoesNotChangeResults) {
  const auto& p = GetParam();
  Rng rng(2000);
  const Tensor x =
      Tensor::random_uniform({p.shape.c, p.shape.h, p.shape.w}, rng);
  const Tensor k = Tensor::random_uniform(
      {p.shape.c, p.shape.n, p.shape.r, p.shape.s}, rng);
  const TuckerFactors f = tucker_decompose(k, p.ranks);
  const auto fused = [&](std::int64_t row_tile) {
    return compile_tucker_plan({.shape = p.shape, .row_tile = row_tile}, f)
        ->run(x);
  };
  const Tensor whole = fused(p.shape.out_h());
  for (const std::int64_t tile : {std::int64_t{1}, std::int64_t{2},
                                  std::int64_t{3}}) {
    const Tensor tiled = fused(tile);
    EXPECT_EQ(Tensor::max_abs_diff(tiled, whole), 0.0)
        << p.label << " row_tile=" << tile;
  }
}

// Bitwise equality of two tensors (NaN payloads included).
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Workspace of `floats` floats between guard bands, poisoned with NaN: a
// stale-scratch read propagates NaN into the output, an out-of-bounds
// write trips a guard.
struct GuardedWorkspace {
  static constexpr float kGuard = 12345.678f;
  static constexpr std::int64_t kGuardFloats = 64;

  explicit GuardedWorkspace(std::int64_t floats)
      : floats(floats),
        buf(static_cast<std::size_t>(floats + 2 * kGuardFloats), kGuard) {
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

// The fused plan hands whole row bands to the threads of one region, each
// band slot with its own workspace, and shrinks the band height so every
// slot gets one. Neither may move a bit: every thread count × intra-op
// width, batched runs (whose image slots run the serial band loop), a plan
// compiled narrower than it runs, a one-slot workspace, a deadline that
// expires inside the region and a warm guarded run must all reproduce the
// one-thread output.
TEST_P(FusedTuckerConv, BandParallelIsBitwiseAcrossWidthsAndWorkspaces) {
  const auto& p = GetParam();
  struct RestoreRuntime {
    int threads = num_threads();
    ~RestoreRuntime() {
      set_num_threads(threads);
      set_arena_config(ArenaConfig{});
    }
  } restore;
  const auto configure = [](int threads, int intra_op) {
    set_num_threads(threads);
    set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = intra_op});
  };
  Rng rng(2500);
  constexpr std::int64_t kBatch = 3;
  const Tensor xb = Tensor::random_uniform(
      {kBatch, p.shape.c, p.shape.h, p.shape.w}, rng);
  const Tensor k = Tensor::random_uniform(
      {p.shape.c, p.shape.n, p.shape.r, p.shape.s}, rng);
  const TuckerFactors f = tucker_decompose(k, p.ranks);
  const TuckerDescriptor desc{.shape = p.shape, .exec = TuckerExec::kFused};
  const std::int64_t in_floats = p.shape.c * p.shape.h * p.shape.w;
  const std::int64_t out_floats =
      p.shape.n * p.shape.out_h() * p.shape.out_w();
  Tensor x({p.shape.c, p.shape.h, p.shape.w});
  std::copy(xb.raw(), xb.raw() + in_floats, x.raw());

  // One image through a plan on a fresh poisoned workspace of `floats`.
  const auto run_image = [&](const ConvPlan& plan, std::int64_t floats) {
    GuardedWorkspace ws(floats);
    Tensor y({p.shape.n, p.shape.out_h(), p.shape.out_w()});
    plan.run_unchecked(x.raw(), y.raw(), ws.span());
    EXPECT_TRUE(ws.guards_intact()) << p.label;
    return y;
  };
  const auto ws_floats = [](const ConvPlan& plan) {
    return plan.workspace_bytes() / static_cast<std::int64_t>(sizeof(float));
  };

  configure(1, 1);
  const auto serial_plan = compile_tucker_plan(desc, f);
  const Tensor serial = run_image(*serial_plan, ws_floats(*serial_plan));
  ASSERT_TRUE(std::isfinite(serial[0]));
  const Tensor fresh = compile_tucker_plan(desc, f)->run(x);
  EXPECT_EQ(Tensor::max_abs_diff(serial, fresh), 0.0) << p.label;

  for (const int threads : {1, 2, 4}) {
    for (const int intra_op : {1, 2, 0}) {
      configure(threads, intra_op);
      const auto plan = compile_tucker_plan(desc, f);
      EXPECT_TRUE(same_bits(run_image(*plan, ws_floats(*plan)), serial))
          << p.label << " threads=" << threads << " intra_op=" << intra_op;

      GuardedWorkspace ws(plan->batched_workspace_bytes(kBatch) /
                          static_cast<std::int64_t>(sizeof(float)));
      Tensor yb({kBatch, p.shape.n, p.shape.out_h(), p.shape.out_w()});
      plan->run_batched(xb, &yb, ws.span());
      EXPECT_TRUE(ws.guards_intact()) << p.label;
      // Image 0 is x; the others must match their own one-image runs.
      for (std::int64_t b = 0; b < kBatch; ++b) {
        Tensor xi({p.shape.c, p.shape.h, p.shape.w});
        std::copy(xb.raw() + b * in_floats, xb.raw() + (b + 1) * in_floats,
                  xi.raw());
        const Tensor want = serial_plan->run(xi);
        for (std::int64_t i = 0; i < out_floats; ++i) {
          ASSERT_EQ(yb[b * out_floats + i], want[i])
              << p.label << " image " << b << " threads=" << threads
              << " intra_op=" << intra_op;
        }
      }
    }
  }

  // Compiled at one thread (one band slot), run four wide; and a plan
  // compiled four wide, handed only one band slot of workspace. The width
  // is explicit: intra_op 0 defers to TDC_INTRA_OP.
  configure(4, 4);
  EXPECT_TRUE(
      same_bits(run_image(*serial_plan, ws_floats(*serial_plan)), serial))
      << p.label;
  const auto wide_plan = compile_tucker_plan(desc, f);
  EXPECT_TRUE(
      same_bits(run_image(*wide_plan, ws_floats(*serial_plan)), serial))
      << p.label;
  // With every slot, the whole conv is one pool region.
  const std::int64_t regions = parallel_stats().pool_regions;
  EXPECT_TRUE(same_bits(run_image(*wide_plan, ws_floats(*wide_plan)), serial))
      << p.label;
  EXPECT_EQ(parallel_stats().pool_regions - regions, 1) << p.label;

  // A deadline already past when the region opens throws from inside it
  // (the first GEMM band poll); the run after it is the warm run below.
  {
    GuardedWorkspace ws(ws_floats(*wide_plan));
    Tensor y({p.shape.n, p.shape.out_h(), p.shape.out_w()});
    bool expired = false;
    try {
      DeadlineScope scope(Deadline::after(0.0));
      wide_plan->run_unchecked(x.raw(), y.raw(), ws.span());
    } catch (const Error& e) {
      expired = e.code() == ErrorCode::kDeadlineExceeded;
    }
    EXPECT_TRUE(expired) << p.label;
    EXPECT_TRUE(ws.guards_intact()) << p.label;
  }

  // A warm run allocates nothing. Which worker serves which band is not
  // fixed, so a few rounds let every thread's GEMM pack buffers grow first.
  {
    GuardedWorkspace ws(ws_floats(*wide_plan));
    Tensor y({p.shape.n, p.shape.out_h(), p.shape.out_w()});
    for (int round = 0; round < 8; ++round) {
      wide_plan->run_unchecked(x.raw(), y.raw(), ws.span());
    }
    const bool saved_guard = alloc_guard_enabled();
    set_alloc_guard(true);
    const std::int64_t violations = alloc_guard_violations();
    {
      DenyAllocGuard guard("band-parallel test");
      EXPECT_NO_THROW(wide_plan->run_unchecked(x.raw(), y.raw(), ws.span()));
    }
    EXPECT_EQ(alloc_guard_violations(), violations) << p.label;
    set_alloc_guard(saved_guard);
    EXPECT_TRUE(same_bits(y, serial)) << p.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedTuckerConv,
    ::testing::Values(
        FusedCase{ConvShape::same(8, 6, 10, 3), {4, 3}, "same3x3"},
        FusedCase{ConvShape::same(8, 8, 12, 3, 2), {5, 5}, "strided3x3"},
        FusedCase{ConvShape::valid_conv(5, 7, 9, 11, 2, 4), {3, 4}, "asym"},
        FusedCase{ConvShape::same(16, 16, 14, 5), {6, 7}, "same5x5"},
        FusedCase{ConvShape::same(6, 4, 7, 1), {3, 2}, "pointwise_core"},
        FusedCase{ConvShape::same(12, 10, 16, 7, 2), {5, 4}, "strided7x7"}),
    [](const auto& info) { return info.param.label; });

// x [B, C, H, W] through plan.run_batched with a full-fan-out workspace.
Tensor run_batched(const ConvPlan& plan, const Tensor& x) {
  const ConvShape& shape = plan.shape();
  const std::int64_t batch = x.dim(0);
  Tensor y({batch, shape.n, shape.out_h(), shape.out_w()});
  std::vector<float> workspace(static_cast<std::size_t>(
      plan.batched_workspace_bytes(batch) / sizeof(float)));
  plan.run_batched(x, &y, workspace);
  return y;
}

TEST(BatchedTuckerConv, MatchesPerImageStagedPipeline) {
  Rng rng(3000);
  const ConvShape shape = ConvShape::same(8, 8, 12, 3);
  const std::int64_t batch = 5;
  const Tensor x =
      Tensor::random_uniform({batch, shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const TuckerFactors f = tucker_decompose(k, {4, 4});
  const auto fused_plan = compile_tucker_plan({.shape = shape}, f);
  const auto staged_plan =
      compile_tucker_plan({.shape = shape, .exec = TuckerExec::kStaged}, f);

  const Tensor fused = run_batched(*fused_plan, x);
  const Tensor staged = run_batched(*staged_plan, x);
  ASSERT_EQ(fused.dims(), staged.dims());
  EXPECT_EQ(Tensor::max_abs_diff(fused, staged), 0.0);

  // Batched output must equal the single-image staged pipeline slice by
  // slice.
  const std::int64_t x_stride = shape.c * shape.h * shape.w;
  for (std::int64_t b = 0; b < batch; ++b) {
    Tensor xb({shape.c, shape.h, shape.w});
    std::copy(x.raw() + b * x_stride, x.raw() + (b + 1) * x_stride, xb.raw());
    const Tensor yb = staged_plan->run(xb);
    const std::int64_t y_stride = yb.numel();
    for (std::int64_t i = 0; i < y_stride; ++i) {
      ASSERT_EQ(fused[b * y_stride + i], yb[i]) << "image " << b;
    }
  }
}

TEST(BatchedTuckerConv, DeterministicAcrossThreadCounts) {
  const int saved = num_threads();
  Rng rng(4000);
  const ConvShape shape = ConvShape::same(6, 6, 10, 3);
  const Tensor x = Tensor::random_uniform({4, shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const TuckerFactors f = tucker_decompose(k, {3, 3});
  const TuckerDescriptor desc{.shape = shape};
  set_num_threads(1);
  const Tensor serial = run_batched(*compile_tucker_plan(desc, f), x);
  set_num_threads(4);
  const Tensor threaded = run_batched(*compile_tucker_plan(desc, f), x);
  set_num_threads(saved);
  EXPECT_EQ(Tensor::max_abs_diff(serial, threaded), 0.0);
}

}  // namespace
}  // namespace tdc
