#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "linalg/eig.h"
#include "linalg/gemm.h"
#include "linalg/svd.h"

namespace tdc {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < b.dim(1); ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < a.dim(1); ++k) {
        acc += static_cast<double>(a(i, k)) * b(k, j);
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(Gemm, MatchesNaiveOnOddSizes) {
  Rng rng(41);
  // Sizes straddle the blocking parameters.
  for (const auto& [m, n, k] :
       {std::tuple{3, 5, 7}, {64, 64, 256}, {65, 63, 257}, {1, 100, 1}}) {
    const Tensor a = Tensor::random_uniform({m, k}, rng);
    const Tensor b = Tensor::random_uniform({k, n}, rng);
    const Tensor fast = matmul(a, b);
    const Tensor slow = naive_matmul(a, b);
    EXPECT_LT(Tensor::rel_error(fast, slow), 1e-5)
        << m << "x" << n << "x" << k;
  }
}

TEST(Gemm, AlphaBetaSemantics) {
  Rng rng(43);
  const Tensor a = Tensor::random_uniform({4, 6}, rng);
  const Tensor b = Tensor::random_uniform({6, 5}, rng);
  Tensor c = Tensor::full({4, 5}, 1.0f);
  gemm(4, 5, 6, a.data(), b.data(), c.data(), 2.0f, 3.0f);
  const Tensor ab = naive_matmul(a, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], 2.0f * ab[i] + 3.0f, 1e-4);
  }
}

TEST(Gemm, TransposedAVariant) {
  Rng rng(45);
  const Tensor at = Tensor::random_uniform({7, 4}, rng);  // stored [K, M]
  const Tensor b = Tensor::random_uniform({7, 5}, rng);
  Tensor c({4, 5});
  gemm_at(4, 5, 7, at.data(), b.data(), c.data());
  const Tensor expected = naive_matmul(transpose2d(at), b);
  EXPECT_LT(Tensor::rel_error(c, expected), 1e-5);
}

TEST(Gemm, TransposedBVariant) {
  Rng rng(47);
  const Tensor a = Tensor::random_uniform({4, 7}, rng);
  const Tensor bt = Tensor::random_uniform({5, 7}, rng);  // stored [N, K]
  Tensor c({4, 5});
  gemm_bt(4, 5, 7, a.data(), bt.data(), c.data());
  const Tensor expected = naive_matmul(a, transpose2d(bt));
  EXPECT_LT(Tensor::rel_error(c, expected), 1e-5);
}

TEST(Gemm, AccumulateWithTransposedVariants) {
  Rng rng(49);
  const Tensor a = Tensor::random_uniform({3, 4}, rng);
  const Tensor bt = Tensor::random_uniform({2, 4}, rng);
  Tensor c = Tensor::full({3, 2}, 10.0f);
  gemm_bt(3, 2, 4, a.data(), bt.data(), c.data(), 1.0f, 1.0f);
  const Tensor expected = naive_matmul(a, transpose2d(bt));
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], expected[i] + 10.0f, 1e-4);
  }
}

TEST(Matmul, ShapeChecks) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Eig, DiagonalMatrix) {
  Tensor a({3, 3});
  a(0, 0) = 1.0f;
  a(1, 1) = 5.0f;
  a(2, 2) = 3.0f;
  const EigResult r = eig_symmetric(a);
  EXPECT_NEAR(r.values[0], 5.0, 1e-9);
  EXPECT_NEAR(r.values[1], 3.0, 1e-9);
  EXPECT_NEAR(r.values[2], 1.0, 1e-9);
  // Leading eigenvector must be ±e1.
  EXPECT_NEAR(std::abs(r.vectors(1, 0)), 1.0, 1e-9);
}

TEST(Eig, Known2x2) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  Tensor a({2, 2});
  a(0, 0) = 2.0f;
  a(0, 1) = 1.0f;
  a(1, 0) = 1.0f;
  a(1, 1) = 2.0f;
  const EigResult r = eig_symmetric(a);
  EXPECT_NEAR(r.values[0], 3.0, 1e-9);
  EXPECT_NEAR(r.values[1], 1.0, 1e-9);
}

TEST(Eig, ReconstructsMatrix) {
  Rng rng(51);
  const std::int64_t n = 12;
  Tensor half = Tensor::random_uniform({n, n}, rng);
  const Tensor a = matmul(half, transpose2d(half));  // SPD
  const EigResult r = eig_symmetric(a);

  // A ≈ V diag(λ) V^T.
  Tensor lambda_vt({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      lambda_vt(i, j) =
          static_cast<float>(r.values[static_cast<std::size_t>(i)]) *
          r.vectors(j, i);
    }
  }
  const Tensor recon = matmul(r.vectors, lambda_vt);
  EXPECT_LT(Tensor::rel_error(recon, a), 1e-4);
}

TEST(Eig, EigenvectorsOrthonormal) {
  Rng rng(53);
  Tensor half = Tensor::random_uniform({10, 10}, rng);
  const Tensor a = matmul(half, transpose2d(half));
  const EigResult r = eig_symmetric(a);
  const Tensor vtv = matmul(transpose2d(r.vectors), r.vectors);
  for (std::int64_t i = 0; i < 10; ++i) {
    for (std::int64_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0f : 0.0f, 1e-5);
    }
  }
}

TEST(Eig, RejectsNonSquare) {
  Tensor a({2, 3});
  EXPECT_THROW(eig_symmetric(a), Error);
}

TEST(Svd, SingularValuesOfOrthogonalScaledMatrix) {
  // diag(4, 2) has singular values {4, 2}.
  Tensor a({2, 4});
  a(0, 0) = 4.0f;
  a(1, 1) = 2.0f;
  const SvdLeft s = svd_left(a);
  ASSERT_EQ(s.singular_values.size(), 2u);
  EXPECT_NEAR(s.singular_values[0], 4.0, 1e-6);
  EXPECT_NEAR(s.singular_values[1], 2.0, 1e-6);
}

TEST(Svd, SingularValuesMatchFrobeniusNorm) {
  Rng rng(55);
  const Tensor a = Tensor::random_uniform({8, 20}, rng);
  const SvdLeft s = svd_left(a);
  double sq = 0.0;
  for (const double sv : s.singular_values) {
    sq += sv * sv;
  }
  EXPECT_NEAR(std::sqrt(sq), a.frobenius_norm(), 1e-3);
}

TEST(Svd, LeadingVectorsSpanBestSubspace) {
  // Build a rank-2 matrix; the top-2 left singular vectors must capture all
  // of its energy: ||U_2 U_2^T A - A|| ≈ 0.
  Rng rng(57);
  const Tensor u = Tensor::random_uniform({6, 2}, rng);
  const Tensor v = Tensor::random_uniform({2, 30}, rng);
  const Tensor a = matmul(u, v);
  const Tensor u2 = leading_left_singular_vectors(a, 2);
  const Tensor proj = matmul(u2, matmul(transpose2d(u2), a));
  EXPECT_LT(Tensor::rel_error(proj, a), 1e-4);
}

TEST(Svd, LeadingVectorCountValidated) {
  Tensor a({3, 5});
  EXPECT_THROW(leading_left_singular_vectors(a, 4), Error);
  EXPECT_THROW(leading_left_singular_vectors(a, 0), Error);
  EXPECT_THROW(leading_left_singular_vectors(Tensor({3}), 1), Error);
}

TEST(Svd, HigherRankTensorIsReadAsItsModeZeroUnfolding) {
  // A CNRS kernel passes itself for its [C, N·R·S] unfolding: the results
  // must be bitwise those of the explicit matrix.
  Rng rng(59);
  const Tensor k = Tensor::random_uniform({40, 24, 3, 3}, rng, -1.0f, 1.0f);
  const Tensor m = k.reshaped({40, 24 * 9});
  const Tensor uk = leading_left_singular_vectors(k, 7);
  const Tensor um = leading_left_singular_vectors(m, 7);
  EXPECT_EQ(Tensor::max_abs_diff(uk, um), 0.0);
  EXPECT_EQ(left_singular_values(k), left_singular_values(m));
  EXPECT_EQ(svd_left(k).singular_values, svd_left(m).singular_values);
}

}  // namespace
}  // namespace tdc
