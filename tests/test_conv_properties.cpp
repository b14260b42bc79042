// Property-based tests on the convolution substrate: algebraic identities
// that must hold for every implementation, checked across a parameterized
// sweep of shapes and algorithms.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/check.h"
#include "conv/conv.h"
#include "conv/tucker_conv.h"
#include "exec/conv_plan.h"

namespace tdc {
namespace {

// ---------- Algorithm × shape agreement sweep ----------

using AlgoShape = std::tuple<ConvAlgo, int, int, int, int, int>;
// (algo, C, N, HW, filter, stride)

class ConvAlgebra : public ::testing::TestWithParam<AlgoShape> {
 protected:
  ConvShape shape() const {
    const auto& [algo, c, n, hw, k, stride] = GetParam();
    (void)algo;
    return ConvShape::same(c, n, hw, k, stride);
  }
  ConvAlgo algo() const { return std::get<0>(GetParam()); }
  bool supported() const { return conv_algo_supports(algo(), shape()); }
  std::unique_ptr<ConvPlan> plan(const Tensor& k) const {
    return compile_conv_plan({.shape = shape(), .algo = algo()}, k);
  }
};

TEST_P(ConvAlgebra, MatchesReference) {
  if (!supported()) {
    GTEST_SKIP();
  }
  const ConvShape s = shape();
  Rng rng(601);
  const Tensor x = Tensor::random_uniform({s.c, s.h, s.w}, rng);
  const Tensor k = Tensor::random_uniform({s.c, s.n, s.r, s.s}, rng);
  const Tensor ref = conv2d_reference(x, k, s);
  const Tensor out = plan(k)->run(x);
  EXPECT_LT(Tensor::rel_error(out, ref), 1e-3);
}

TEST_P(ConvAlgebra, LinearInInput) {
  // conv(a·x1 + b·x2) == a·conv(x1) + b·conv(x2)
  if (!supported()) {
    GTEST_SKIP();
  }
  const ConvShape s = shape();
  Rng rng(603);
  const Tensor x1 = Tensor::random_uniform({s.c, s.h, s.w}, rng);
  const Tensor x2 = Tensor::random_uniform({s.c, s.h, s.w}, rng);
  const Tensor k = Tensor::random_uniform({s.c, s.n, s.r, s.s}, rng);
  Tensor mix({s.c, s.h, s.w});
  for (std::int64_t i = 0; i < mix.numel(); ++i) {
    mix[i] = 2.0f * x1[i] - 0.5f * x2[i];
  }
  const auto p = plan(k);
  const Tensor lhs = p->run(mix);
  const Tensor y1 = p->run(x1);
  const Tensor y2 = p->run(x2);
  Tensor rhs(lhs.dims());
  for (std::int64_t i = 0; i < rhs.numel(); ++i) {
    rhs[i] = 2.0f * y1[i] - 0.5f * y2[i];
  }
  EXPECT_LT(Tensor::rel_error(lhs, rhs), 1e-3);
}

TEST_P(ConvAlgebra, AdditiveInKernel) {
  // conv(x, k1 + k2) == conv(x, k1) + conv(x, k2)
  if (!supported()) {
    GTEST_SKIP();
  }
  const ConvShape s = shape();
  Rng rng(605);
  const Tensor x = Tensor::random_uniform({s.c, s.h, s.w}, rng);
  const Tensor k1 = Tensor::random_uniform({s.c, s.n, s.r, s.s}, rng);
  const Tensor k2 = Tensor::random_uniform({s.c, s.n, s.r, s.s}, rng);
  Tensor ksum({s.c, s.n, s.r, s.s});
  for (std::int64_t i = 0; i < ksum.numel(); ++i) {
    ksum[i] = k1[i] + k2[i];
  }
  const Tensor lhs = plan(ksum)->run(x);
  const Tensor y1 = plan(k1)->run(x);
  const Tensor y2 = plan(k2)->run(x);
  Tensor rhs(lhs.dims());
  for (std::int64_t i = 0; i < rhs.numel(); ++i) {
    rhs[i] = y1[i] + y2[i];
  }
  EXPECT_LT(Tensor::rel_error(lhs, rhs), 1e-3);
}

TEST_P(ConvAlgebra, ZeroKernelGivesZeroOutput) {
  if (!supported()) {
    GTEST_SKIP();
  }
  const ConvShape s = shape();
  Rng rng(607);
  const Tensor x = Tensor::random_uniform({s.c, s.h, s.w}, rng);
  const Tensor k({s.c, s.n, s.r, s.s});
  const Tensor y = plan(k)->run(x);
  EXPECT_LT(y.frobenius_norm(), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvAlgebra,
    ::testing::Combine(
        ::testing::Values(ConvAlgo::kIm2col, ConvAlgo::kWinograd,
                          ConvAlgo::kFft),
        ::testing::Values(3, 8),          // C
        ::testing::Values(4, 9),          // N
        ::testing::Values(8, 13),         // HW
        ::testing::Values(1, 3, 5),       // filter
        ::testing::Values(1, 2)),         // stride
    [](const auto& info) {
      const std::string algo =
          conv_algo_name(std::get<0>(info.param)) == std::string("im2col-gemm")
              ? "im2col"
              : conv_algo_name(std::get<0>(info.param));
      return algo + "_c" + std::to_string(std::get<1>(info.param)) + "n" +
             std::to_string(std::get<2>(info.param)) + "hw" +
             std::to_string(std::get<3>(info.param)) + "k" +
             std::to_string(std::get<4>(info.param)) + "s" +
             std::to_string(std::get<5>(info.param));
    });

// ---------- Structural identities (reference algorithm) ----------

TEST(ConvIdentities, DeltaKernelIsIdentity) {
  // A centered 1-hot 3×3 kernel with C=N=1 copies the (same-padded) input.
  const ConvShape s = ConvShape::same(1, 1, 9, 3);
  Rng rng(611);
  const Tensor x = Tensor::random_uniform({1, 9, 9}, rng);
  Tensor k({1, 1, 3, 3});
  k(0, 0, 1, 1) = 1.0f;
  const Tensor y = conv2d_reference(x, k, s);
  EXPECT_LT(Tensor::max_abs_diff(y, x), 1e-6);
}

TEST(ConvIdentities, ShiftEquivariance) {
  // Shifting the input by one pixel shifts the (valid) output by one pixel.
  const ConvShape s = ConvShape::valid_conv(2, 3, 10, 10, 3, 3);
  Rng rng(613);
  const Tensor x = Tensor::random_uniform({2, 10, 10}, rng);
  const Tensor k = Tensor::random_uniform({2, 3, 3, 3}, rng);
  Tensor shifted({2, 10, 10});
  for (std::int64_t c = 0; c < 2; ++c) {
    for (std::int64_t i = 0; i < 10; ++i) {
      for (std::int64_t j = 0; j + 1 < 10; ++j) {
        shifted(c, i, j) = x(c, i, j + 1);
      }
    }
  }
  const Tensor y = conv2d_reference(x, k, s);
  const Tensor ys = conv2d_reference(shifted, k, s);
  // ys(., i, j) == y(., i, j+1) wherever both are defined.
  for (std::int64_t n = 0; n < 3; ++n) {
    for (std::int64_t i = 0; i < s.out_h(); ++i) {
      for (std::int64_t j = 0; j + 1 < s.out_w(); ++j) {
        EXPECT_NEAR(ys(n, i, j), y(n, i, j + 1), 1e-4);
      }
    }
  }
}

TEST(ConvIdentities, ChannelDecomposition) {
  // Summing single-channel convolutions equals the multi-channel one.
  const ConvShape full = ConvShape::same(4, 2, 6, 3);
  Rng rng(617);
  const Tensor x = Tensor::random_uniform({4, 6, 6}, rng);
  const Tensor k = Tensor::random_uniform({4, 2, 3, 3}, rng);
  const Tensor y = conv2d_reference(x, k, full);

  Tensor acc({2, 6, 6});
  for (std::int64_t c = 0; c < 4; ++c) {
    Tensor xc({1, 6, 6});
    Tensor kc({1, 2, 3, 3});
    for (std::int64_t i = 0; i < 36; ++i) {
      xc[i] = x[c * 36 + i];
    }
    for (std::int64_t n = 0; n < 2; ++n) {
      for (std::int64_t e = 0; e < 9; ++e) {
        kc[n * 9 + e] = k[(c * 2 + n) * 9 + e];
      }
    }
    acc.add_(conv2d_reference(xc, kc, ConvShape::same(1, 2, 6, 3)));
  }
  EXPECT_LT(Tensor::rel_error(acc, y), 1e-4);
}

TEST(ConvIdentities, StrideSubsamplesStrideOneResult) {
  const ConvShape s1 = ConvShape::same(3, 4, 12, 3, 1);
  const ConvShape s2 = ConvShape::same(3, 4, 12, 3, 2);
  Rng rng(619);
  const Tensor x = Tensor::random_uniform({3, 12, 12}, rng);
  const Tensor k = Tensor::random_uniform({3, 4, 3, 3}, rng);
  const Tensor dense = conv2d_reference(x, k, s1);
  const Tensor strided = conv2d_reference(x, k, s2);
  for (std::int64_t n = 0; n < 4; ++n) {
    for (std::int64_t i = 0; i < s2.out_h(); ++i) {
      for (std::int64_t j = 0; j < s2.out_w(); ++j) {
        EXPECT_NEAR(strided(n, i, j), dense(n, 2 * i, 2 * j), 1e-4);
      }
    }
  }
}

// ---------- Tucker pipeline properties across ranks ----------

class TuckerPipelineRanks
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TuckerPipelineRanks, PipelineEqualsReconstructedKernelConv) {
  const auto& [d1, d2] = GetParam();
  const ConvShape s = ConvShape::same(8, 6, 9, 3);
  Rng rng(701);
  const Tensor x = Tensor::random_uniform({8, 9, 9}, rng);
  const Tensor k = Tensor::random_uniform({8, 6, 3, 3}, rng);
  const TuckerFactors f = tucker_decompose(k, {d1, d2});
  const Tensor via_pipeline = tucker_conv(x, f, s);
  const Tensor via_kernel = conv2d_reference(x, tucker_reconstruct(f), s);
  EXPECT_LT(Tensor::rel_error(via_pipeline, via_kernel), 1e-3);
}

TEST_P(TuckerPipelineRanks, OutputErrorBoundedByKernelError) {
  // ||pipeline(x) − conv(x)||_F per unit input is controlled by the kernel
  // approximation error — higher ranks, lower output error.
  const auto& [d1, d2] = GetParam();
  const ConvShape s = ConvShape::same(8, 6, 9, 3);
  Rng rng(703);
  const Tensor x = Tensor::random_uniform({8, 9, 9}, rng);
  const Tensor k = Tensor::random_uniform({8, 6, 3, 3}, rng);
  const TuckerFactors f = tucker_decompose(k, {d1, d2});
  const Tensor exact = conv2d_reference(x, k, s);
  const Tensor approx = tucker_conv(x, f, s);
  const double out_err = Tensor::rel_error(approx, exact);
  const double kernel_err = tucker_projection_error(k, {d1, d2});
  if (kernel_err < 1e-6) {
    EXPECT_LT(out_err, 1e-3);
  } else {
    // Loose amplification bound: the conv operator norm over this input.
    EXPECT_LT(out_err, kernel_err * 25.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, TuckerPipelineRanks,
                         ::testing::Values(std::tuple<int, int>{1, 1},
                                           std::tuple<int, int>{2, 3},
                                           std::tuple<int, int>{4, 4},
                                           std::tuple<int, int>{6, 5},
                                           std::tuple<int, int>{8, 6}),
                         [](const auto& info) {
                           return "d" + std::to_string(std::get<0>(info.param)) +
                                  "_" + std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace tdc
