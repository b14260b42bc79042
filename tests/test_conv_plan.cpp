// Tests for the plan/execute API (exec/conv_plan.h): workspace exactness
// under a poisoned, guard-banded workspace; bit-reproducibility across
// repeated calls and thread counts; kAuto resolution and its fallback on
// shapes Winograd/FFT reject; Tucker plan parity with the staged oracle;
// and batched execution against per-image runs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "conv/tucker_conv.h"
#include "exec/conv_plan.h"
#include "tucker/tucker.h"

namespace tdc {
namespace {

constexpr float kGuard = 12345.678f;
constexpr std::int64_t kGuardFloats = 64;

// Workspace of exactly plan->workspace_bytes(), bracketed by guard bands and
// poisoned with NaN: a plan that reads scratch it never wrote propagates NaN
// into the output, and one that writes past its stated size trips a guard.
struct PoisonedWorkspace {
  explicit PoisonedWorkspace(std::int64_t bytes)
      : floats(bytes / static_cast<std::int64_t>(sizeof(float))),
        buf(static_cast<std::size_t>(floats + 2 * kGuardFloats), kGuard) {
    poison();
  }

  void poison() {
    std::fill(buf.begin() + kGuardFloats,
              buf.begin() + kGuardFloats + floats,
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

struct AlgoCase {
  ConvAlgo algo;
  ConvShape shape;
  double tol;
  const char* label;
};

class ConvPlanAlgo : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(ConvPlanAlgo, MatchesReferenceUnderPoisonedWorkspace) {
  const AlgoCase& p = GetParam();
  Rng rng(501);
  const Tensor x = Tensor::random_uniform({p.shape.c, p.shape.h, p.shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({p.shape.c, p.shape.n, p.shape.r, p.shape.s}, rng);
  const Tensor ref = conv2d_reference(x, k, p.shape);

  ConvDescriptor desc;
  desc.shape = p.shape;
  desc.algo = p.algo;
  const auto plan = compile_conv_plan(desc, k);
  EXPECT_EQ(plan->algo(), p.algo);
  EXPECT_FALSE(plan->decomposed());

  PoisonedWorkspace ws(plan->workspace_bytes());
  Tensor y({p.shape.n, p.shape.out_h(), p.shape.out_w()});
  plan->run(x, &y, ws.span());
  EXPECT_TRUE(ws.guards_intact()) << p.label;
  EXPECT_TRUE(all_finite(y)) << p.label;
  EXPECT_LT(Tensor::rel_error(y, ref), p.tol) << p.label;
}

TEST_P(ConvPlanAlgo, BitIdenticalAcrossRepeatedCallsAndThreadCounts) {
  const AlgoCase& p = GetParam();
  const int saved = num_threads();
  Rng rng(502);
  const Tensor x = Tensor::random_uniform({p.shape.c, p.shape.h, p.shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({p.shape.c, p.shape.n, p.shape.r, p.shape.s}, rng);

  ConvDescriptor desc;
  desc.shape = p.shape;
  desc.algo = p.algo;
  const auto plan = compile_conv_plan(desc, k);

  PoisonedWorkspace ws(plan->workspace_bytes());
  Tensor first({p.shape.n, p.shape.out_h(), p.shape.out_w()});
  plan->run(x, &first, ws.span());
  for (const int nt : {1, 3, 6}) {
    set_num_threads(nt);
    ws.poison();
    Tensor again({p.shape.n, p.shape.out_h(), p.shape.out_w()});
    plan->run(x, &again, ws.span());
    EXPECT_EQ(Tensor::max_abs_diff(first, again), 0.0)
        << p.label << " threads=" << nt;
  }
  set_num_threads(saved);
}

INSTANTIATE_TEST_SUITE_P(
    Algos, ConvPlanAlgo,
    ::testing::Values(
        AlgoCase{ConvAlgo::kReference, ConvShape::same(5, 7, 9, 3), 1e-6,
                 "reference"},
        AlgoCase{ConvAlgo::kIm2col, ConvShape::same(8, 6, 11, 3, 2), 1e-4,
                 "im2col_strided"},
        AlgoCase{ConvAlgo::kIm2col, ConvShape::valid_conv(5, 7, 9, 11, 2, 4),
                 1e-4, "im2col_asym"},
        AlgoCase{ConvAlgo::kWinograd, ConvShape::same(6, 8, 12, 3), 1e-3,
                 "winograd"},
        AlgoCase{ConvAlgo::kWinograd, ConvShape::same(4, 4, 9, 3), 1e-3,
                 "winograd_odd"},
        AlgoCase{ConvAlgo::kFft, ConvShape::same(6, 5, 10, 5), 1e-4, "fft"},
        AlgoCase{ConvAlgo::kFft, ConvShape::valid_conv(3, 4, 8, 12, 2, 3),
                 1e-4, "fft_asym"},
        AlgoCase{ConvAlgo::kTdcCore, ConvShape::same(6, 8, 10, 3), 1e-4,
                 "tdc_core"},
        AlgoCase{ConvAlgo::kTdcCore, ConvShape::same(8, 6, 12, 3, 2), 1e-4,
                 "tdc_core_strided"}),
    [](const auto& info) { return info.param.label; });

TEST(ConvPlan, WinogradFloatTileMathMatchesReferenceTight) {
  // Dedicated parity check of the float Winograd rewrite on a larger
  // problem: the transform-domain GEMM path must stay well inside the
  // historical 1e-3 tolerance.
  Rng rng(503);
  const ConvShape shape = ConvShape::same(16, 16, 28, 3);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  ConvDescriptor desc;
  desc.shape = shape;
  desc.algo = ConvAlgo::kWinograd;
  const Tensor y = compile_conv_plan(desc, k)->run(x);
  EXPECT_LT(Tensor::rel_error(y, conv2d_reference(x, k, shape)), 2e-5);
}

TEST(ConvPlan, FftFloatMatchesReferenceTight) {
  Rng rng(504);
  const ConvShape shape = ConvShape::same(12, 10, 20, 5);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  ConvDescriptor desc;
  desc.shape = shape;
  desc.algo = ConvAlgo::kFft;
  const Tensor y = compile_conv_plan(desc, k)->run(x);
  EXPECT_LT(Tensor::rel_error(y, conv2d_reference(x, k, shape)), 1e-5);
}

TEST(ConvPlan, AutoResolvesToSupportedAlgorithm) {
  const DeviceSpec device = make_a100();
  // Stride-2 5×5: Winograd (3×3 only) and FFT (stride 1 only) must be
  // rejected, so kAuto has to fall back to a supported algorithm.
  const ConvShape strided = ConvShape::same(8, 8, 16, 5, 2);
  const ConvAlgo resolved = resolve_conv_algo(device, strided);
  EXPECT_TRUE(conv_algo_supports(resolved, strided))
      << conv_algo_name(resolved);
  EXPECT_NE(resolved, ConvAlgo::kWinograd);
  EXPECT_NE(resolved, ConvAlgo::kFft);
  EXPECT_NE(resolved, ConvAlgo::kReference);
  EXPECT_NE(resolved, ConvAlgo::kAuto);

  Rng rng(505);
  const Tensor x = Tensor::random_uniform({strided.c, strided.h, strided.w}, rng);
  const Tensor k = Tensor::random_uniform(
      {strided.c, strided.n, strided.r, strided.s}, rng);
  ConvDescriptor desc;
  desc.shape = strided;
  const auto plan = compile_conv_plan(desc, k);  // algo defaults to kAuto
  EXPECT_EQ(plan->algo(), resolved);
  EXPECT_LT(Tensor::rel_error(plan->run(x), conv2d_reference(x, k, strided)),
            1e-4);
}

TEST(ConvPlan, AutoNeverSelectsTransformAlgosForPointwise) {
  // Regression: a 1×1 convolution is a bare channel-mix GEMM. Winograd is
  // shape-rejected anyway, but FFT functionally supports stride-1 1×1
  // layers, and trusting its padded-plane cost model there could hand a
  // pointwise layer to the transform path. The resolver must exclude both.
  const DeviceSpec device = make_a100();
  for (const ConvShape& shape :
       {ConvShape::same(64, 64, 56, 1), ConvShape::same(256, 64, 56, 1),
        ConvShape::same(64, 256, 7, 1), ConvShape::same(64, 128, 56, 1, 2),
        ConvShape::valid_conv(16, 32, 30, 30, 1, 1)}) {
    const ConvAlgo resolved = resolve_conv_algo(device, shape);
    EXPECT_NE(resolved, ConvAlgo::kWinograd) << shape.to_string();
    EXPECT_NE(resolved, ConvAlgo::kFft) << shape.to_string();
    EXPECT_TRUE(conv_algo_supports(resolved, shape)) << shape.to_string();
  }
}

TEST(ConvPlan, PointwiseIm2colPlanIsZeroWorkspaceAndExact) {
  // The 1×1 fast path: unit-stride unpadded pointwise plans skip the patch
  // copy and run the GEMM straight off the input (zero workspace).
  Rng rng(520);
  const ConvShape shape = ConvShape::same(6, 9, 11, 1);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  ConvDescriptor desc;
  desc.shape = shape;
  desc.algo = ConvAlgo::kIm2col;
  const auto plan = compile_conv_plan(desc, k);
  EXPECT_EQ(plan->workspace_bytes(), 0);
  EXPECT_LT(Tensor::rel_error(plan->run(x), conv2d_reference(x, k, shape)),
            1e-4);

  // Strided 1×1 (a ResNet downsample) still needs the subsampling im2col.
  const ConvShape strided = ConvShape::same(6, 9, 11, 1, 2);
  const Tensor ks =
      Tensor::random_uniform({strided.c, strided.n, strided.r, strided.s},
                             rng);
  desc.shape = strided;
  const auto strided_plan = compile_conv_plan(desc, ks);
  EXPECT_GT(strided_plan->workspace_bytes(), 0);
  EXPECT_LT(Tensor::rel_error(strided_plan->run(x),
                              conv2d_reference(x, ks, strided)),
            1e-4);
}

TEST(ConvPlan, ExplicitUnsupportedAlgoThrows) {
  Rng rng(506);
  const ConvShape strided5 = ConvShape::same(2, 2, 8, 5, 2);
  const Tensor k = Tensor::random_uniform(
      {strided5.c, strided5.n, strided5.r, strided5.s}, rng);
  ConvDescriptor desc;
  desc.shape = strided5;
  desc.algo = ConvAlgo::kWinograd;
  EXPECT_THROW(compile_conv_plan(desc, k), Error);
  desc.algo = ConvAlgo::kFft;
  EXPECT_THROW(compile_conv_plan(desc, k), Error);
}

TEST(ConvPlan, UndersizedWorkspaceAndOutputThrow) {
  Rng rng(507);
  const ConvShape shape = ConvShape::same(4, 4, 10, 3);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  ConvDescriptor desc;
  desc.shape = shape;
  desc.algo = ConvAlgo::kIm2col;
  const auto plan = compile_conv_plan(desc, k);
  ASSERT_GT(plan->workspace_bytes(), 0);

  std::vector<float> small(
      static_cast<std::size_t>(plan->workspace_bytes() / sizeof(float)) - 1);
  Tensor y({shape.n, shape.out_h(), shape.out_w()});
  EXPECT_THROW(plan->run(x, &y, small), Error);

  std::vector<float> ok(
      static_cast<std::size_t>(plan->workspace_bytes() / sizeof(float)));
  Tensor bad({shape.n + 1, shape.out_h(), shape.out_w()});
  EXPECT_THROW(plan->run(x, &bad, ok), Error);
}

TEST(ConvPlan, KernelLayoutVariantsAgree) {
  Rng rng(508);
  const ConvShape shape = ConvShape::same(5, 6, 9, 3);
  const Tensor k_cnrs =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  ConvDescriptor desc;
  desc.shape = shape;
  desc.algo = ConvAlgo::kIm2col;
  const Tensor via_cnrs = compile_conv_plan(desc, k_cnrs)->run(
      Tensor::full({shape.c, shape.h, shape.w}, 0.5f));

  desc.weight_layout = KernelLayout::kCRSN;
  const Tensor via_crsn = compile_conv_plan(desc, cnrs_to_crsn(k_cnrs))->run(
      Tensor::full({shape.c, shape.h, shape.w}, 0.5f));
  EXPECT_EQ(Tensor::max_abs_diff(via_cnrs, via_crsn), 0.0);

  desc.weight_layout = KernelLayout::kNCRS;
  const Tensor via_ncrs = compile_conv_plan(desc, cnrs_to_ncrs(k_cnrs))->run(
      Tensor::full({shape.c, shape.h, shape.w}, 0.5f));
  EXPECT_EQ(Tensor::max_abs_diff(via_cnrs, via_ncrs), 0.0);
}

TEST(ConvPlan, BatchedRunMatchesPerImageRuns) {
  Rng rng(509);
  const ConvShape shape = ConvShape::same(6, 8, 12, 3);
  const std::int64_t batch = 5;
  const Tensor x =
      Tensor::random_uniform({batch, shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);

  ConvDescriptor desc;
  desc.shape = shape;
  desc.algo = ConvAlgo::kIm2col;
  const auto plan = compile_conv_plan(desc, k);

  PoisonedWorkspace ws(plan->batched_workspace_bytes(batch));
  Tensor y({batch, shape.n, shape.out_h(), shape.out_w()});
  plan->run_batched(x, &y, ws.span());
  EXPECT_TRUE(ws.guards_intact());

  const std::int64_t x_stride = shape.c * shape.h * shape.w;
  const std::int64_t y_stride = shape.n * shape.out_h() * shape.out_w();
  for (std::int64_t b = 0; b < batch; ++b) {
    Tensor xb({shape.c, shape.h, shape.w});
    std::copy(x.raw() + b * x_stride, x.raw() + (b + 1) * x_stride, xb.raw());
    const Tensor yb = plan->run(xb);
    for (std::int64_t i = 0; i < y_stride; ++i) {
      ASSERT_EQ(y[b * y_stride + i], yb[i]) << "image " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Tucker plans.

TEST(TuckerPlan, FusedPlanIsBitIdenticalToStagedOracle) {
  Rng rng(510);
  const ConvShape shape = ConvShape::same(8, 8, 12, 3, 2);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const TuckerFactors f = tucker_decompose(k, {5, 5});
  const Tensor staged =
      compile_tucker_plan({.shape = shape, .exec = TuckerExec::kStaged}, f)
          ->run(x);

  TuckerDescriptor desc;
  desc.shape = shape;
  desc.exec = TuckerExec::kFused;
  const auto plan = compile_tucker_plan(desc, f);
  EXPECT_TRUE(plan->decomposed());
  PoisonedWorkspace ws(plan->workspace_bytes());
  Tensor y({shape.n, shape.out_h(), shape.out_w()});
  plan->run(x, &y, ws.span());
  EXPECT_TRUE(ws.guards_intact());
  EXPECT_EQ(Tensor::max_abs_diff(y, staged), 0.0);
}

TEST(TuckerPlan, StagedPlanComposesWithEveryCoreAlgorithm) {
  Rng rng(511);
  const ConvShape shape = ConvShape::same(8, 6, 10, 3);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const TuckerFactors f = tucker_decompose(k, {4, 4});
  const Tensor oracle = tucker_conv(x, f, shape);

  for (const ConvAlgo core :
       {ConvAlgo::kReference, ConvAlgo::kIm2col, ConvAlgo::kWinograd,
        ConvAlgo::kFft, ConvAlgo::kTdcCore, ConvAlgo::kAuto}) {
    TuckerDescriptor desc;
    desc.shape = shape;
    desc.exec = TuckerExec::kStaged;
    desc.core_algo = core;
    const auto plan = compile_tucker_plan(desc, f);
    PoisonedWorkspace ws(plan->workspace_bytes());
    Tensor y({shape.n, shape.out_h(), shape.out_w()});
    plan->run(x, &y, ws.span());
    EXPECT_TRUE(ws.guards_intact()) << conv_algo_name(core);
    EXPECT_LT(Tensor::rel_error(y, oracle), 1e-3) << conv_algo_name(core);
  }
}

TEST(TuckerPlan, BatchedFusedMatchesPerImageBitwiseAcrossThreadCounts) {
  const int saved = num_threads();
  Rng rng(512);
  const ConvShape shape = ConvShape::same(6, 6, 10, 3);
  const std::int64_t batch = 7;
  const Tensor x =
      Tensor::random_uniform({batch, shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const TuckerFactors f = tucker_decompose(k, {3, 3});

  TuckerDescriptor desc;
  desc.shape = shape;
  const auto plan = compile_tucker_plan(desc, f);
  PoisonedWorkspace ws(plan->batched_workspace_bytes(batch));
  Tensor first({batch, shape.n, shape.out_h(), shape.out_w()});
  plan->run_batched(x, &first, ws.span());
  EXPECT_TRUE(ws.guards_intact());

  for (const int nt : {1, 4}) {
    set_num_threads(nt);
    ws.poison();
    Tensor again({batch, shape.n, shape.out_h(), shape.out_w()});
    plan->run_batched(x, &again, ws.span());
    EXPECT_EQ(Tensor::max_abs_diff(first, again), 0.0) << "threads=" << nt;
  }
  set_num_threads(saved);
}

TEST(TuckerPlan, MismatchedFactorsThrow) {
  Rng rng(513);
  const ConvShape shape = ConvShape::same(6, 6, 10, 3);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  TuckerFactors f = tucker_decompose(k, {3, 3});
  TuckerDescriptor desc;
  desc.shape = ConvShape::same(8, 6, 10, 3);  // C mismatch vs U1
  EXPECT_THROW(compile_tucker_plan(desc, f), Error);
}

}  // namespace
}  // namespace tdc
