// Decomposition-accuracy suite for the symmetric eigensolvers (linalg/eig.h).
//
// The tridiagonal-QL production solver is checked four ways: against
// basis-independent invariants (orthogonality, residuals, reconstruction,
// descending order) on random SPD and indefinite matrices up to n = 512,
// against the retained cyclic-Jacobi kernel as an independent oracle at
// sizes where Jacobi is still cheap (edge shapes and 1e±150 scales
// included), for the exec-layer determinism contract — bit-identical
// output for any TDC_NUM_THREADS — and for the lower-triangle contract:
// nothing above the diagonal changes a bit of the result. Eigenvector
// comparisons are deliberately subspace-based (residual ‖Av − λv‖ and
// cluster projectors), never column-by-column: any orthonormal basis of a
// repeated eigenvalue's eigenspace is a correct answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/eig.h"
#include "linalg/gemm.h"

namespace tdc {
namespace {

Tensor random_symmetric(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Tensor b = Tensor::random_uniform({n, n}, rng);
  Tensor a({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      a(i, j) = 0.5f * (b(i, j) + b(j, i));
    }
  }
  return a;
}

Tensor random_spd(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Tensor half = Tensor::random_uniform({n, n}, rng);
  Tensor a({n, n});
  // Double-accumulated B·B^T keeps the test matrix exactly symmetric.
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < n; ++k) {
        acc += static_cast<double>(half(i, k)) * half(j, k);
      }
      a(i, j) = static_cast<float>(acc);
      a(j, i) = static_cast<float>(acc);
    }
  }
  return a;
}

double matrix_inf_norm(const Tensor& a) {
  double best = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    best = std::max(best, static_cast<double>(std::abs(a[i])));
  }
  return std::max(best, 1e-30);
}

/// max_ij |(V^T V − I)_ij|, accumulated in double.
double orthogonality_error(const Tensor& v) {
  const std::int64_t n = v.dim(0);
  const std::int64_t k = v.dim(1);
  double worst = 0.0;
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      double dot = 0.0;
      for (std::int64_t r = 0; r < n; ++r) {
        dot += static_cast<double>(v(r, i)) * v(r, j);
      }
      worst = std::max(worst, std::abs(dot - (i == j ? 1.0 : 0.0)));
    }
  }
  return worst;
}

/// max over columns of ‖A·v − λ·v‖₂ / ‖A‖.
double worst_residual(const Tensor& a, const EigResult& r) {
  const std::int64_t n = a.dim(0);
  const std::int64_t k = r.vectors.dim(1);
  const double scale = matrix_inf_norm(a) * static_cast<double>(n);
  double worst = 0.0;
  for (std::int64_t col = 0; col < k; ++col) {
    double err2 = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      double av = 0.0;
      for (std::int64_t j = 0; j < n; ++j) {
        av += static_cast<double>(a(i, j)) * r.vectors(j, col);
      }
      const double d = av - r.values[static_cast<std::size_t>(col)] *
                                r.vectors(i, col);
      err2 += d * d;
    }
    worst = std::max(worst, std::sqrt(err2) / scale);
  }
  return worst;
}

void expect_descending(const std::vector<double>& values) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_GE(values[i - 1], values[i]) << "position " << i;
  }
}

TEST(EigQl, MatchesJacobiOracleAcrossSizesAndSignatures) {
  // Straddle the Jacobi fallback threshold on purpose: eig_symmetric_ql
  // always takes the tridiagonal pipeline, the oracle always Jacobi.
  for (const std::int64_t n : {2, 3, 5, 16, 33, 64, 96}) {
    for (const bool spd : {true, false}) {
      const Tensor a = spd ? random_spd(n, 900 + static_cast<std::uint64_t>(n))
                           : random_symmetric(
                                 n, 1900 + static_cast<std::uint64_t>(n));
      const EigResult ql = eig_symmetric_ql(a);
      const EigResult oracle = eig_symmetric_jacobi(a);
      ASSERT_EQ(ql.values.size(), static_cast<std::size_t>(n));
      const double scale = matrix_inf_norm(a) * static_cast<double>(n);
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR(ql.values[static_cast<std::size_t>(i)],
                    oracle.values[static_cast<std::size_t>(i)], 1e-6 * scale)
            << "n=" << n << " spd=" << spd << " i=" << i;
      }
      EXPECT_LT(orthogonality_error(ql.vectors), 1e-5) << "n=" << n;
      EXPECT_LT(worst_residual(a, ql), 1e-6) << "n=" << n << " spd=" << spd;
    }
  }
}

TEST(EigQl, PropertySuiteUpToN512) {
  for (const std::int64_t n : {64, 128, 256, 512}) {
    for (const bool spd : {true, false}) {
      const Tensor a = spd ? random_spd(n, 300 + static_cast<std::uint64_t>(n))
                           : random_symmetric(
                                 n, 1300 + static_cast<std::uint64_t>(n));
      const EigResult r = eig_symmetric(a);
      expect_descending(r.values);
      EXPECT_LT(orthogonality_error(r.vectors), 1e-5)
          << "n=" << n << " spd=" << spd;
      EXPECT_LT(worst_residual(a, r), 1e-6) << "n=" << n << " spd=" << spd;
      if (spd) {
        EXPECT_GE(r.values.back(), -1e-6 * matrix_inf_norm(a)) << "n=" << n;
      }

      // Reconstruction ‖A − VΛV^T‖/‖A‖ through the engine GEMM.
      Tensor lambda_vt({n, n});
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          lambda_vt(i, j) =
              static_cast<float>(r.values[static_cast<std::size_t>(i)]) *
              r.vectors(j, i);
        }
      }
      const Tensor recon = matmul(r.vectors, lambda_vt);
      EXPECT_LT(Tensor::rel_error(recon, a), 1e-4)
          << "n=" << n << " spd=" << spd;
    }
  }
}

TEST(EigTopk, AgreesWithFullSolverOnLeadingPairs) {
  const std::int64_t n = 160;
  const Tensor a = random_spd(n, 41);
  const EigResult full = eig_symmetric(a);
  for (const std::int64_t k : {1, 5, 40, 160}) {
    const EigResult top = eig_symmetric_topk(a, k);
    ASSERT_EQ(top.values.size(), static_cast<std::size_t>(k));
    ASSERT_EQ(top.vectors.dim(0), n);
    ASSERT_EQ(top.vectors.dim(1), k);
    expect_descending(top.values);
    const double scale = matrix_inf_norm(a) * static_cast<double>(n);
    for (std::int64_t i = 0; i < k; ++i) {
      EXPECT_NEAR(top.values[static_cast<std::size_t>(i)],
                  full.values[static_cast<std::size_t>(i)], 1e-6 * scale)
          << "k=" << k << " i=" << i;
    }
    EXPECT_LT(orthogonality_error(top.vectors), 1e-5) << "k=" << k;
    EXPECT_LT(worst_residual(a, top), 1e-6) << "k=" << k;
  }
}

TEST(EigTopk, ClusteredEigenvaluesSpanTheRightEigenspace) {
  // A = V·D·V^T with an orthogonal V and a spectrum holding two exactly
  // repeated groups; built at n = 48 so the Jacobi oracle (which produced V)
  // stays cheap while the matrix itself is solved above the fallback via
  // eig_symmetric_ql/topk.
  const std::int64_t n = 48;
  const Tensor v = eig_symmetric_jacobi(random_spd(n, 57)).vectors;
  std::vector<double> spectrum(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    spectrum[static_cast<std::size_t>(i)] =
        i < 3 ? 10.0 : (i < 8 ? 4.0 : 1.0 / static_cast<double>(i));
  }
  Tensor a({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t c = 0; c < n; ++c) {
        acc += spectrum[static_cast<std::size_t>(c)] *
               static_cast<double>(v(i, c)) * v(j, c);
      }
      a(i, j) = static_cast<float>(acc);
    }
  }

  const EigResult full = eig_symmetric_ql(a);
  const EigResult top = eig_symmetric_topk(a, 8);
  for (std::int64_t i = 0; i < 8; ++i) {
    const double want = i < 3 ? 10.0 : 4.0;
    EXPECT_NEAR(full.values[static_cast<std::size_t>(i)], want, 1e-4) << i;
    EXPECT_NEAR(top.values[static_cast<std::size_t>(i)], want, 1e-4) << i;
  }
  EXPECT_LT(orthogonality_error(top.vectors), 1e-5);
  EXPECT_LT(worst_residual(a, top), 1e-5);

  // The λ=10 eigenspace projector must match the generator's V[:, 0:3]
  // regardless of which orthonormal basis either solver returned.
  for (const Tensor& vecs : {full.vectors, top.vectors}) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        double got = 0.0;
        double want = 0.0;
        for (std::int64_t c = 0; c < 3; ++c) {
          got += static_cast<double>(vecs(i, c)) * vecs(j, c);
          want += static_cast<double>(v(i, c)) * v(j, c);
        }
        EXPECT_NEAR(got, want, 1e-4) << i << "," << j;
      }
    }
  }
}

/// eig_symmetric_ql, eig_symmetric_topk and eig_symmetric_values (n above
/// the Jacobi fallback, so all three take the tridiagonal pipeline) against
/// the Jacobi oracle: eigenvalues at the suite's relative tolerance,
/// eigenvectors by residual and orthogonality.
void expect_pipeline_matches_jacobi(const Tensor& a, const std::string& what) {
  const std::int64_t n = a.dim(0);
  const std::int64_t k = n / 2;
  const EigResult oracle = eig_symmetric_jacobi(a);
  const EigResult full = eig_symmetric_ql(a);
  const EigResult top = eig_symmetric_topk(a, k);
  const std::vector<double> vals = eig_symmetric_values(a);
  ASSERT_EQ(vals.size(), static_cast<std::size_t>(n)) << what;
  const double tol = 1e-6 * matrix_inf_norm(a) * static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto at = static_cast<std::size_t>(i);
    EXPECT_NEAR(full.values[at], oracle.values[at], tol) << what << " i=" << i;
    EXPECT_NEAR(vals[at], oracle.values[at], tol) << what << " i=" << i;
    if (i < k) {
      EXPECT_NEAR(top.values[at], oracle.values[at], tol)
          << what << " i=" << i;
    }
  }
  EXPECT_LT(orthogonality_error(full.vectors), 1e-5) << what;
  EXPECT_LT(worst_residual(a, full), 1e-6) << what;
  EXPECT_LT(orthogonality_error(top.vectors), 1e-5) << what;
  EXPECT_LT(worst_residual(a, top), 1e-6) << what;
}

TEST(EigQl, EdgeShapesMatchJacobiOracle) {
  // Just above the Jacobi fallback: the reduction's 8-lane groups and
  // their remainders at the smallest sizes the pipeline ever sees.
  for (const std::int64_t n : {kEigJacobiFallbackDim + 1,
                               kEigJacobiFallbackDim + 2}) {
    const auto seed = static_cast<std::uint64_t>(n);
    expect_pipeline_matches_jacobi(random_spd(n, 2100 + seed),
                                   "spd n=" + std::to_string(n));
    expect_pipeline_matches_jacobi(random_symmetric(n, 2200 + seed),
                                   "indefinite n=" + std::to_string(n));
  }

  // Diagonal: every column is already tridiagonal, so no step builds a
  // reflector. The values repeat, so the vectors come from clusters.
  const std::int64_t n = 40;
  Tensor diag({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    diag(i, i) = static_cast<float>(i % 7) - 3.0f;
  }
  expect_pipeline_matches_jacobi(diag, "diagonal");

  // Block-diagonal: the steps at each block's last two columns find a zero
  // tail and skip the reflector, between steps that build one — including
  // a 1×1 block and a zero block.
  Tensor blocks({n, n});
  const Tensor b0 = random_spd(17, 2301);
  const Tensor b1 = random_symmetric(12, 2302);
  for (std::int64_t i = 0; i < 17; ++i) {
    for (std::int64_t j = 0; j < 17; ++j) {
      blocks(i, j) = b0(i, j) / 17.0f;
    }
  }
  blocks(17, 17) = 2.5f;
  for (std::int64_t i = 0; i < 12; ++i) {
    for (std::int64_t j = 0; j < 12; ++j) {
      blocks(18 + i, 18 + j) = b1(i, j);
    }
  }
  expect_pipeline_matches_jacobi(blocks, "block-diagonal");
}

TEST(EigQl, ExtremeScaleGramsMatchJacobiOracle) {
  // Entries near 1e±150 square to near the ends of the double range: an
  // unguarded reduction or QL rotation overflows to inf or flushes to
  // zero. The double-precision entry must return the oracle's spectrum
  // scaled, and the same eigenvectors — through the full solver (k = n)
  // and through the top-k path with its root-free values pass.
  for (const std::int64_t n : {33, 64, 128}) {
    const Tensor gram = random_spd(n, 2400 + static_cast<std::uint64_t>(n));
    const EigResult oracle = eig_symmetric_jacobi(gram);
    const double tol = 1e-6 * matrix_inf_norm(gram) * static_cast<double>(n);
    for (const double scale : {1e150, 1e-150}) {
      std::vector<double> scaled(static_cast<std::size_t>(n * n));
      for (std::int64_t i = 0; i < n * n; ++i) {
        scaled[static_cast<std::size_t>(i)] =
            static_cast<double>(gram[i]) * scale;
      }
      for (const std::int64_t k : {n, n / 4}) {
        EigResult ql = eig_symmetric_ql(scaled, n, k);
        ASSERT_EQ(ql.values.size(), static_cast<std::size_t>(k));
        for (std::int64_t i = 0; i < k; ++i) {
          const auto at = static_cast<std::size_t>(i);
          EXPECT_NEAR(ql.values[at] / scale, oracle.values[at], tol)
              << "n=" << n << " k=" << k << " scale=" << scale << " i=" << i;
        }
        for (double& v : ql.values) {
          v /= scale;
        }
        EXPECT_LT(orthogonality_error(ql.vectors), 1e-5)
            << "n=" << n << " k=" << k << " scale=" << scale;
        EXPECT_LT(worst_residual(gram, ql), 1e-6)
            << "n=" << n << " k=" << k << " scale=" << scale;
      }
    }
  }
}

TEST(EigQl, SubnormalSquaresKeepRotationsOrthogonal) {
  // An O(1) block beside a block of entries near 1e-158: the small block's
  // QL rotations square to below the smallest normal double. Both QL
  // variants must return the large block's spectrum, the small block's
  // eigenvalues as (numerically) zero, and orthonormal vectors — a plain
  // sqrt(f² + g²) over subnormal squares leaves the full solver's
  // rotations far from orthogonal.
  constexpr std::int64_t kHalf = 24;
  constexpr std::int64_t n = 2 * kHalf;
  const Tensor big = random_spd(kHalf, 2600);
  const Tensor small = random_spd(kHalf, 2601);
  std::vector<double> a(static_cast<std::size_t>(n * n), 0.0);
  Tensor embedded({n, n});  // the matrix as a float holds it: tiny block 0
  for (std::int64_t i = 0; i < kHalf; ++i) {
    for (std::int64_t j = 0; j < kHalf; ++j) {
      a[static_cast<std::size_t>(i * n + j)] = big(i, j);
      a[static_cast<std::size_t>((kHalf + i) * n + kHalf + j)] =
          1e-158 * static_cast<double>(small(i, j));
      embedded(i, j) = big(i, j);
    }
  }
  const EigResult oracle = eig_symmetric_jacobi(big);
  const double tol = 1e-6 * matrix_inf_norm(big) * static_cast<double>(n);
  for (const std::int64_t k : {n, kHalf / 2}) {
    const EigResult ql = eig_symmetric_ql(a, n, k);
    ASSERT_EQ(ql.values.size(), static_cast<std::size_t>(k));
    for (std::int64_t i = 0; i < k; ++i) {
      const auto at = static_cast<std::size_t>(i);
      const double want = i < kHalf ? oracle.values[at] : 0.0;
      EXPECT_NEAR(ql.values[at], want, tol) << "k=" << k << " i=" << i;
    }
    EXPECT_LT(orthogonality_error(ql.vectors), 1e-5) << "k=" << k;
    EXPECT_LT(worst_residual(embedded, ql), 1e-6) << "k=" << k;
  }
}

TEST(Eig, ReadsOnlyTheLowerTriangle) {
  // The Gram route computes only the lower triangle (svd.cpp), so whatever
  // sits above the diagonal must never reach the result: NaN there has to
  // leave every output bit as it is on the clean matrix.
  for (const std::int64_t n : {33, 64, 257, 512}) {
    const Tensor clean =
        random_symmetric(n, 2500 + static_cast<std::uint64_t>(n));
    Tensor dirty = clean;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        dirty(i, j) = std::numeric_limits<float>::quiet_NaN();
      }
    }
    const std::int64_t k = std::min<std::int64_t>(n, 48);
    const EigResult full = eig_symmetric(clean);
    const EigResult full_dirty = eig_symmetric(dirty);
    EXPECT_EQ(full_dirty.values, full.values) << "n=" << n;
    EXPECT_EQ(std::memcmp(full_dirty.vectors.raw(), full.vectors.raw(),
                          sizeof(float) * static_cast<std::size_t>(n * n)),
              0)
        << "n=" << n;
    const EigResult top = eig_symmetric_topk(clean, k);
    const EigResult top_dirty = eig_symmetric_topk(dirty, k);
    EXPECT_EQ(top_dirty.values, top.values) << "n=" << n;
    EXPECT_EQ(std::memcmp(top_dirty.vectors.raw(), top.vectors.raw(),
                          sizeof(float) * static_cast<std::size_t>(n * k)),
              0)
        << "n=" << n;
    EXPECT_EQ(eig_symmetric_values(dirty), eig_symmetric_values(clean))
        << "n=" << n;
  }
}

TEST(Eig, DeterministicAcrossThreadCounts) {
  const int saved = num_threads();
  // Odd sizes just above the Jacobi fallback put the reduction's 8-lane
  // groups, their remainders and the back-transform's chunk edges at every
  // offset.
  for (const std::int64_t n : {33, 35, 37, 101, 256}) {
    const Tensor a = random_spd(n, 77);
    const std::int64_t k = std::min<std::int64_t>(64, n);

    set_num_threads(1);
    const EigResult full1 = eig_symmetric(a);
    const EigResult top1 = eig_symmetric_topk(a, k);
    const std::vector<double> vals1 = eig_symmetric_values(a);
    for (const int nt : {2, 4, 8}) {
      set_num_threads(nt);
      const EigResult full = eig_symmetric(a);
      const EigResult top = eig_symmetric_topk(a, k);
      const std::vector<double> vals = eig_symmetric_values(a);
      // Bitwise: the doubles must be equal, not just close.
      EXPECT_EQ(full.values, full1.values) << "n=" << n << " threads=" << nt;
      EXPECT_EQ(Tensor::max_abs_diff(full.vectors, full1.vectors), 0.0)
          << "n=" << n << " threads=" << nt;
      EXPECT_EQ(top.values, top1.values) << "n=" << n << " threads=" << nt;
      EXPECT_EQ(Tensor::max_abs_diff(top.vectors, top1.vectors), 0.0)
          << "n=" << n << " threads=" << nt;
      EXPECT_EQ(vals, vals1) << "n=" << n << " threads=" << nt;
    }
  }
  set_num_threads(saved);
}

TEST(Eig, ValuesOnlyPathMatchesFullSolver) {
  for (const std::int64_t n : {16, 64, 200}) {
    const Tensor a = random_symmetric(n, 500 + static_cast<std::uint64_t>(n));
    const std::vector<double> vals = eig_symmetric_values(a);
    const EigResult full = eig_symmetric(a);
    ASSERT_EQ(vals.size(), full.values.size());
    const double scale = matrix_inf_norm(a) * static_cast<double>(n);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      EXPECT_NEAR(vals[i], full.values[i], 1e-8 * scale) << "n=" << n;
    }
  }
}

TEST(Eig, ZeroAndNearZeroMatrices) {
  const std::int64_t n = 64;
  const Tensor zero({n, n});
  const EigResult rz = eig_symmetric(zero);
  for (const double v : rz.values) {
    EXPECT_EQ(v, 0.0);
  }
  EXPECT_LT(orthogonality_error(rz.vectors), 1e-6);
  const EigResult topz = eig_symmetric_topk(zero, 5);
  EXPECT_LT(orthogonality_error(topz.vectors), 1e-6);

  Tensor tiny = Tensor::full({n, n}, 1e-30f);
  const EigResult rt = eig_symmetric(tiny);
  expect_descending(rt.values);
  EXPECT_LT(orthogonality_error(rt.vectors), 1e-5);
}

TEST(Eig, SmallNFallbackIsExactlyJacobi) {
  // At or below the threshold the dispatcher must hand back the Jacobi
  // result bit-for-bit (it is the documented fallback, not a lookalike).
  const Tensor a = random_symmetric(kEigJacobiFallbackDim, 91);
  const EigResult got = eig_symmetric(a);
  const EigResult oracle = eig_symmetric_jacobi(a);
  EXPECT_EQ(got.values, oracle.values);
  EXPECT_EQ(Tensor::max_abs_diff(got.vectors, oracle.vectors), 0.0);
}

TEST(Eig, InputValidation) {
  Tensor rect({3, 5});
  EXPECT_THROW(eig_symmetric(rect), Error);
  EXPECT_THROW(eig_symmetric_ql(rect), Error);
  EXPECT_THROW(eig_symmetric_values(rect), Error);
  EXPECT_THROW(eig_symmetric_topk(rect, 1), Error);
  Tensor sq({4, 4});
  EXPECT_THROW(eig_symmetric_topk(sq, 0), Error);
  EXPECT_THROW(eig_symmetric_topk(sq, 5), Error);
}

}  // namespace
}  // namespace tdc
