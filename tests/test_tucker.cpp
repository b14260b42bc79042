#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "linalg/eig.h"
#include "linalg/gemm.h"
#include "tensor/unfold.h"
#include "tucker/flops.h"
#include "tucker/tucker.h"

namespace tdc {
namespace {

TEST(Tucker, FactorShapes) {
  Rng rng(71);
  const Tensor k = Tensor::random_uniform({8, 6, 3, 3}, rng);
  const TuckerFactors f = tucker_decompose(k, {4, 3});
  EXPECT_EQ(f.u1.dim(0), 8);
  EXPECT_EQ(f.u1.dim(1), 4);
  EXPECT_EQ(f.u2.dim(0), 6);
  EXPECT_EQ(f.u2.dim(1), 3);
  EXPECT_EQ(f.core.dim(0), 4);
  EXPECT_EQ(f.core.dim(1), 3);
  EXPECT_EQ(f.core.dim(2), 3);
  EXPECT_EQ(f.core.dim(3), 3);
  EXPECT_EQ(f.ranks(), (TuckerRanks{4, 3}));
}

TEST(Tucker, FullRankReconstructionIsExact) {
  Rng rng(73);
  const Tensor k = Tensor::random_uniform({6, 5, 3, 3}, rng);
  const Tensor recon = tucker_project(k, {6, 5});
  EXPECT_LT(Tensor::rel_error(recon, k), 1e-4);
}

TEST(Tucker, ExactlyRecoversLowRankTensor) {
  // Build a kernel that is exactly Tucker-rank (2, 3); projecting at those
  // ranks must be lossless.
  Rng rng(75);
  TuckerFactors f;
  f.core = Tensor::random_uniform({2, 3, 3, 3}, rng);
  f.u1 = Tensor::random_uniform({8, 2}, rng);
  f.u2 = Tensor::random_uniform({6, 3}, rng);
  const Tensor k = tucker_reconstruct(f);
  EXPECT_LT(tucker_projection_error(k, {2, 3}), 1e-4);
}

TEST(Tucker, ErrorDecreasesMonotonicallyWithRank) {
  Rng rng(77);
  const Tensor k = Tensor::random_uniform({12, 10, 3, 3}, rng);
  double prev = 1e9;
  for (std::int64_t r = 2; r <= 12; r += 2) {
    const double err =
        tucker_projection_error(k, {r, std::min<std::int64_t>(r, 10)});
    EXPECT_LE(err, prev + 1e-6) << "rank " << r;
    prev = err;
  }
}

TEST(Tucker, ProjectionIsIdempotent) {
  Rng rng(79);
  const Tensor k = Tensor::random_uniform({8, 8, 3, 3}, rng);
  const Tensor once = tucker_project(k, {3, 4});
  const Tensor twice = tucker_project(once, {3, 4});
  EXPECT_LT(Tensor::rel_error(twice, once), 1e-3);
}

TEST(Tucker, FactorsAreOrthonormal) {
  Rng rng(81);
  const Tensor k = Tensor::random_uniform({10, 8, 3, 3}, rng);
  const TuckerFactors f = tucker_decompose(k, {5, 4});
  const Tensor g1 = matmul(transpose2d(f.u1), f.u1);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(g1(i, j), i == j ? 1.0f : 0.0f, 1e-4);
    }
  }
}

TEST(Tucker, LatentRanksOfSyntheticLowRank) {
  Rng rng(83);
  TuckerFactors f;
  f.core = Tensor::random_uniform({3, 4, 3, 3}, rng);
  f.u1 = Tensor::random_uniform({9, 3}, rng);
  f.u2 = Tensor::random_uniform({8, 4}, rng);
  const Tensor k = tucker_reconstruct(f);
  // Gram-route singular values carry O(sqrt(eps_f32)) relative noise; the
  // rank gap of this synthetic tensor is far above 1e-2.
  const TuckerRanks r = tucker_latent_ranks(k, 1e-2);
  EXPECT_EQ(r.d1, 3);
  EXPECT_EQ(r.d2, 4);
}

TEST(Tucker, LatentRanksOfDeadKernelsClampToOne) {
  // Regression: every singular value of an all-zero (or numerically dead)
  // kernel falls below tol·largest, which used to yield rank 0 and violate
  // tucker_decompose's d1/d2 >= 1 precondition.
  const Tensor zero({8, 6, 3, 3});
  const TuckerRanks rz = tucker_latent_ranks(zero);
  EXPECT_EQ(rz.d1, 1);
  EXPECT_EQ(rz.d2, 1);
  EXPECT_NO_THROW(tucker_decompose(zero, rz));

  // A denormal-scale kernel must also round-trip through decompose.
  const Tensor tiny = Tensor::full({8, 6, 3, 3}, 1e-38f);
  const TuckerRanks rt = tucker_latent_ranks(tiny);
  EXPECT_GE(rt.d1, 1);
  EXPECT_GE(rt.d2, 1);
  EXPECT_NO_THROW(tucker_decompose(tiny, rt));
}

TEST(Tucker, RankValidation) {
  Rng rng(85);
  const Tensor k = Tensor::random_uniform({4, 4, 3, 3}, rng);
  EXPECT_THROW(tucker_decompose(k, {0, 2}), Error);
  EXPECT_THROW(tucker_decompose(k, {5, 2}), Error);
  EXPECT_THROW(tucker_decompose(k, {2, 5}), Error);
}

TEST(Tucker, ReconstructMatchesEquationOne) {
  // Check Eq. (1) entrywise against mode products.
  Rng rng(87);
  TuckerFactors f;
  f.core = Tensor::random_uniform({2, 2, 2, 2}, rng);
  f.u1 = Tensor::random_uniform({3, 2}, rng);
  f.u2 = Tensor::random_uniform({4, 2}, rng);
  const Tensor k = tucker_reconstruct(f);
  for (std::int64_t c = 0; c < 3; ++c) {
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t r = 0; r < 2; ++r) {
        for (std::int64_t s = 0; s < 2; ++s) {
          double expected = 0.0;
          for (std::int64_t d1 = 0; d1 < 2; ++d1) {
            for (std::int64_t d2 = 0; d2 < 2; ++d2) {
              expected += static_cast<double>(f.core(d1, d2, r, s)) *
                          f.u1(c, d1) * f.u2(n, d2);
            }
          }
          EXPECT_NEAR(k(c, n, r, s), expected, 1e-5);
        }
      }
    }
  }
}

/// All eigenvectors of a mode unfolding's Gram matrix from the Jacobi
/// oracle, descending: column i is the i-th left singular vector the slow
/// solver would hand tucker_decompose.
Tensor jacobi_left_vectors(const Tensor& unfolding) {
  const std::int64_t m = unfolding.dim(0);
  const std::int64_t cols = unfolding.numel() / m;
  Tensor gram({m, m});
  gemm_bt(m, m, cols, unfolding.data(), unfolding.data(), gram.data());
  return eig_symmetric_jacobi(gram).vectors;
}

Tensor leading_columns(const Tensor& v, std::int64_t k) {
  Tensor out({v.dim(0), k});
  for (std::int64_t i = 0; i < v.dim(0); ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      out(i, j) = v(i, j);
    }
  }
  return out;
}

TEST(Tucker, ProjectionErrorMatchesJacobiFactors) {
  // Same approximation, faster solver: the production eigensolver's factors
  // must truncate a kernel as well as factors from the Jacobi oracle.
  const std::int64_t sizes[] = {64, 128, 256};
  for (const std::int64_t c : sizes) {
    for (const std::int64_t n : sizes) {
      Rng rng(static_cast<std::uint64_t>(1000 * c + n));
      const Tensor kernel = Tensor::random_normal({c, n, 3, 3}, rng);
      const Tensor v1 = jacobi_left_vectors(kernel);
      const Tensor v2 = jacobi_left_vectors(unfold_mode(kernel, 1));
      for (const TuckerRanks ranks : {TuckerRanks{c / 8, n / 2},
                                      TuckerRanks{c / 2, n / 4},
                                      TuckerRanks{3 * c / 4, 3 * n / 4}}) {
        TuckerFactors f;
        f.u1 = leading_columns(v1, ranks.d1);
        f.u2 = leading_columns(v2, ranks.d2);
        f.core = mode_product(mode_product(kernel, f.u1, 0), f.u2, 1);
        const double oracle =
            Tensor::rel_error(tucker_reconstruct(f), kernel);
        EXPECT_NEAR(tucker_projection_error(kernel, ranks), oracle,
                    1e-5 * oracle)
            << c << "x" << n << " ranks (" << ranks.d1 << ", " << ranks.d2
            << ")";
      }
    }
  }
}

// --- tucker_decompose_all: one parallel region over a build's layers ---

// Sets the runtime's thread count and arena split for one test and restores
// the defaults afterwards, so the concurrent path runs whatever
// TDC_NUM_THREADS the suite was started with.
class DecomposeAllTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_num_threads(threads_);
    set_arena_config({});
  }

  // A mixed inventory: more kernels than workers, sizes in no particular
  // order, Gram matrices on both sides of the Jacobi fallback.
  void SetUp() override {
    Rng rng(91);
    const std::vector<std::vector<std::int64_t>> dims = {
        {24, 40, 3, 3}, {96, 64, 3, 3}, {8, 8, 1, 1},  {64, 96, 3, 3},
        {48, 48, 5, 5}, {16, 72, 3, 3}, {80, 40, 3, 1}};
    for (const auto& d : dims) {
      kernels_.push_back(Tensor::random_uniform(d, rng, -1.0f, 1.0f));
      ranks_.push_back({d[0] / 2, (d[1] * 3) / 4});
    }
    for (const Tensor& k : kernels_) {
      ptrs_.push_back(&k);
    }
  }

  static void expect_bitwise(const Tensor& a, const Tensor& b) {
    ASSERT_TRUE(a.same_shape(b));
    EXPECT_EQ(std::memcmp(a.raw(), b.raw(),
                          static_cast<std::size_t>(a.numel()) * sizeof(float)),
              0);
  }

  const int threads_ = num_threads();
  std::vector<Tensor> kernels_;
  std::vector<const Tensor*> ptrs_;
  std::vector<TuckerRanks> ranks_;
};

TEST_F(DecomposeAllTest, MatchesPerKernelDecompositionBitwise) {
  for (const int threads : {1, 2, 4}) {
    for (const int intra_op : {1, 0}) {
      set_num_threads(threads);
      set_arena_config({.inter_op = 0, .intra_op = intra_op});
      const std::vector<TuckerFactors> all =
          tucker_decompose_all(ptrs_, ranks_);
      ASSERT_EQ(all.size(), kernels_.size());
      for (std::size_t i = 0; i < kernels_.size(); ++i) {
        SCOPED_TRACE("threads " + std::to_string(threads) + ", intra_op " +
                     std::to_string(intra_op) + ", kernel " +
                     std::to_string(i));
        const TuckerFactors one = tucker_decompose(kernels_[i], ranks_[i]);
        expect_bitwise(all[i].u1, one.u1);
        expect_bitwise(all[i].u2, one.u2);
        expect_bitwise(all[i].core, one.core);
      }
    }
  }
}

TEST_F(DecomposeAllTest, LoneDecompositionIsBitwiseAcrossThreadsAndWidths) {
  // A lone tucker_decompose runs its two modes' SVDs as concurrent jobs
  // when the width allows: the factors must be the one-thread bits.
  set_num_threads(1);
  std::vector<TuckerFactors> serial;
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    serial.push_back(tucker_decompose(kernels_[i], ranks_[i]));
  }
  for (const int threads : {2, 4}) {
    for (const int intra_op : {1, 2, 0}) {
      set_num_threads(threads);
      set_arena_config({.inter_op = 0, .intra_op = intra_op});
      for (std::size_t i = 0; i < kernels_.size(); ++i) {
        SCOPED_TRACE("threads " + std::to_string(threads) + ", intra_op " +
                     std::to_string(intra_op) + ", kernel " +
                     std::to_string(i));
        const TuckerFactors f = tucker_decompose(kernels_[i], ranks_[i]);
        expect_bitwise(f.u1, serial[i].u1);
        expect_bitwise(f.u2, serial[i].u2);
        expect_bitwise(f.core, serial[i].core);
      }
    }
  }
}

TEST_F(DecomposeAllTest, EmptyInventoryDecomposesNothing) {
  EXPECT_TRUE(tucker_decompose_all({}, {}).empty());
}

TEST_F(DecomposeAllTest, BadRankThrowsTypedOnCallerWithNoOutput) {
  set_num_threads(4);
  ranks_[3].d2 = kernels_[3].dim(1) + 1;
  std::vector<TuckerFactors> out;
  try {
    out = tucker_decompose_all(ptrs_, ranks_);
    FAIL() << "expected an out-of-range rank error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
  EXPECT_TRUE(out.empty());
  ranks_.pop_back();  // one rank pair short of the kernels
  EXPECT_THROW(tucker_decompose_all(ptrs_, ranks_), Error);
}

TEST_F(DecomposeAllTest, FailureInsideRegionRethrowsOnCaller) {
  set_num_threads(4);
  fault_arm("tucker.decompose_alloc", FaultSpec{.skip = 2, .count = 1});
  std::vector<TuckerFactors> out;
  EXPECT_THROW(out = tucker_decompose_all(ptrs_, ranks_), std::bad_alloc);
  EXPECT_EQ(fault_fire_count("tucker.decompose_alloc"), 1);
  fault_disarm_all();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tucker_decompose_all(ptrs_, ranks_).size(), kernels_.size());
}

// --- Eqs. (5)/(6): parameter and FLOPs accounting ---

TEST(TuckerFlops, ParamsFormula) {
  const ConvShape shape = ConvShape::valid_conv(64, 128, 28, 28, 3, 3);
  const TuckerRanks ranks{16, 32};
  // C·D1 + R·S·D1·D2 + N·D2
  EXPECT_DOUBLE_EQ(tucker_params(shape, ranks),
                   64.0 * 16 + 9.0 * 16 * 32 + 128.0 * 32);
  EXPECT_DOUBLE_EQ(params_reduction_ratio(shape, ranks),
                   (64.0 * 128 * 9) / (64.0 * 16 + 9.0 * 16 * 32 + 128.0 * 32));
}

TEST(TuckerFlops, FlopsFormulaValidConv) {
  const ConvShape shape = ConvShape::valid_conv(64, 128, 28, 28, 3, 3);
  const TuckerRanks ranks{16, 32};
  const double oh = 26, ow = 26;
  const double expected = 2.0 * (28.0 * 28 * 64 * 16) +
                          2.0 * (oh * ow * 9 * 16 * 32) +
                          2.0 * (oh * ow * 128 * 32);
  EXPECT_DOUBLE_EQ(tucker_flops(shape, ranks), expected);
}

TEST(TuckerFlops, ReductionRatioAboveOneForSmallRanks) {
  const ConvShape shape = ConvShape::same(256, 256, 14, 3);
  EXPECT_GT(flops_reduction_ratio(shape, {64, 64}), 2.0);
  EXPECT_GT(params_reduction_ratio(shape, {64, 64}), 2.0);
}

TEST(TuckerFlops, FullRanksGiveRatioBelowOne) {
  // Decomposing at full ranks adds the two 1×1 stages: more FLOPs, γF < 1.
  const ConvShape shape = ConvShape::same(64, 64, 28, 3);
  EXPECT_LT(flops_reduction_ratio(shape, {64, 64}), 1.0);
}

TEST(TuckerFlops, StageShapes) {
  const ConvShape shape = ConvShape::same(64, 128, 28, 3, 2);
  const TuckerRanks ranks{16, 32};
  const ConvShape pw1 = first_pointwise_shape(shape, ranks);
  EXPECT_EQ(pw1.c, 64);
  EXPECT_EQ(pw1.n, 16);
  EXPECT_EQ(pw1.h, 28);
  EXPECT_EQ(pw1.stride_h, 1);
  const ConvShape core = core_conv_shape(shape, ranks);
  EXPECT_EQ(core.c, 16);
  EXPECT_EQ(core.n, 32);
  EXPECT_EQ(core.stride_h, 2);
  EXPECT_EQ(core.out_h(), shape.out_h());
  const ConvShape pw2 = last_pointwise_shape(shape, ranks);
  EXPECT_EQ(pw2.c, 32);
  EXPECT_EQ(pw2.n, 128);
  EXPECT_EQ(pw2.h, shape.out_h());
}

TEST(TuckerFlops, PipelineFlopsSplitAcrossStages) {
  const ConvShape shape = ConvShape::same(32, 32, 14, 3);
  const TuckerRanks ranks{8, 8};
  const double sum = first_pointwise_shape(shape, ranks).flops() +
                     core_conv_shape(shape, ranks).flops() +
                     last_pointwise_shape(shape, ranks).flops();
  EXPECT_DOUBLE_EQ(tucker_flops(shape, ranks), sum);
}

}  // namespace
}  // namespace tdc
