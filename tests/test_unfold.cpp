#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "linalg/gemm.h"
#include "tensor/unfold.h"

namespace tdc {
namespace {

TEST(Unfold, ShapesAreModeByRest) {
  Tensor t({3, 4, 5, 6});
  for (int mode = 0; mode < 4; ++mode) {
    const Tensor m = unfold_mode(t, mode);
    EXPECT_EQ(m.dim(0), t.dim(mode));
    EXPECT_EQ(m.dim(1), t.numel() / t.dim(mode));
  }
}

TEST(Unfold, FoldInvertsUnfoldAllModes) {
  Rng rng(21);
  const Tensor t = Tensor::random_uniform({3, 4, 2, 5}, rng);
  for (int mode = 0; mode < 4; ++mode) {
    const Tensor back = fold_mode(unfold_mode(t, mode), mode, t.dims());
    EXPECT_EQ(Tensor::max_abs_diff(t, back), 0.0) << "mode " << mode;
  }
}

TEST(Unfold, Mode0RowsAreContiguousSlices) {
  // For mode 0 of a row-major tensor, row i must equal the i-th slab.
  Rng rng(23);
  const Tensor t = Tensor::random_uniform({3, 4, 5}, rng);
  const Tensor m = unfold_mode(t, 0);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 20; ++j) {
      EXPECT_EQ(m(i, j), t[i * 20 + j]);
    }
  }
}

// The index-walk definition of the unfolding: element T[idx] lands in row
// idx[mode], column = the other indices flattened row-major.
Tensor unfold_oracle(const Tensor& t, int mode) {
  const std::vector<std::int64_t>& dims = t.dims();
  const std::int64_t rows = dims[static_cast<std::size_t>(mode)];
  Tensor out({rows, t.numel() / rows});
  std::vector<std::int64_t> idx(dims.size(), 0);
  for (std::int64_t flat = 0; flat < t.numel(); ++flat) {
    std::int64_t col = 0;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (static_cast<int>(i) != mode) {
        col = col * dims[i] + idx[i];
      }
    }
    out(idx[static_cast<std::size_t>(mode)], col) = t[flat];
    for (int i = static_cast<int>(dims.size()) - 1; i >= 0; --i) {
      const auto u = static_cast<std::size_t>(i);
      if (++idx[u] < dims[u]) {
        break;
      }
      idx[u] = 0;
    }
  }
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(Unfold, MatchesIndexWalkOracleBitwise) {
  Rng rng(33);
  const std::vector<std::int64_t> extents = {3, 4, 2, 5, 3};
  for (std::size_t rank = 1; rank <= extents.size(); ++rank) {
    const std::vector<std::int64_t> dims(extents.begin(),
                                         extents.begin() +
                                             static_cast<std::ptrdiff_t>(rank));
    const Tensor t = Tensor::random_uniform(dims, rng, -1.0f, 1.0f);
    for (int mode = 0; mode < static_cast<int>(rank); ++mode) {
      SCOPED_TRACE("rank " + std::to_string(rank) + ", mode " +
                   std::to_string(mode));
      const Tensor m = unfold_mode(t, mode);
      EXPECT_TRUE(same_bits(m, unfold_oracle(t, mode)));
      EXPECT_TRUE(same_bits(fold_mode(m, mode, dims), t));
    }
  }
}

TEST(Unfold, InvalidModeThrows) {
  Tensor t({2, 2});
  EXPECT_THROW(unfold_mode(t, 2), Error);
  EXPECT_THROW(unfold_mode(t, -1), Error);
}

TEST(Unfold, FoldValidatesShapes) {
  Tensor m({3, 8});
  EXPECT_THROW(fold_mode(m, 0, {4, 6}), Error);   // row mismatch
  EXPECT_THROW(fold_mode(m, 0, {3, 9}), Error);   // count mismatch
}

TEST(ModeProduct, MatchesUnfoldGemmFold) {
  Rng rng(25);
  const Tensor t = Tensor::random_uniform({3, 4, 5}, rng);
  const Tensor a = Tensor::random_uniform({4, 7}, rng);
  const Tensor direct = mode_product(t, a, 1);

  // Reference: unfold along mode 1, multiply A^T · M, fold back.
  const Tensor m = unfold_mode(t, 1);          // [4, 15]
  const Tensor prod = matmul(transpose2d(a), m);  // [7, 15]
  const Tensor expected = fold_mode(prod, 1, {3, 7, 5});
  EXPECT_LT(Tensor::max_abs_diff(direct, expected), 1e-5);
}

TEST(ModeProduct, OneGemmIsBitwiseThePerSlabGemms) {
  // mode_product runs one GEMM over the unfolding; each output entry must
  // still be exactly what a GEMM over its own [in, inner] slab gives
  // (the same products in the same K order), whatever the tile edges.
  struct Case {
    std::vector<std::int64_t> dims;
    int mode;
    std::int64_t out;
  };
  const std::vector<Case> cases = {{{96, 512, 3, 3}, 1, 96},
                                   {{5, 33, 7}, 1, 19},
                                   {{4, 6, 9, 2}, 2, 5},
                                   {{16, 64, 3, 3}, 1, 17},
                                   {{3, 40, 1}, 1, 40}};
  Rng rng(29);
  for (const Case& c : cases) {
    const Tensor t = Tensor::random_uniform(c.dims, rng);
    const std::int64_t in = c.dims[static_cast<std::size_t>(c.mode)];
    const Tensor a = Tensor::random_uniform({in, c.out}, rng);
    const Tensor direct = mode_product(t, a, c.mode);
    std::int64_t outer = 1;
    std::int64_t inner = 1;
    for (std::size_t i = 0; i < c.dims.size(); ++i) {
      if (static_cast<int>(i) < c.mode) {
        outer *= c.dims[i];
      } else if (static_cast<int>(i) > c.mode) {
        inner *= c.dims[i];
      }
    }
    Tensor expected(direct.dims());
    for (std::int64_t o = 0; o < outer; ++o) {
      gemm_strided(c.out, inner, in, a.raw(), 1, c.out,
                   t.raw() + o * in * inner, inner, 1,
                   expected.raw() + o * c.out * inner, inner);
    }
    EXPECT_EQ(std::memcmp(direct.raw(), expected.raw(),
                          sizeof(float) *
                              static_cast<std::size_t>(expected.numel())),
              0)
        << "dims[1]=" << c.dims[1] << " mode=" << c.mode;
  }
}

TEST(ModeProduct, IdentityMatrixIsNoop) {
  Rng rng(27);
  const Tensor t = Tensor::random_uniform({2, 3, 4}, rng);
  Tensor eye({3, 3});
  for (std::int64_t i = 0; i < 3; ++i) {
    eye(i, i) = 1.0f;
  }
  const Tensor out = mode_product(t, eye, 1);
  EXPECT_LT(Tensor::max_abs_diff(t, out), 1e-6);
}

TEST(ModeProduct, ChangesOnlyTargetMode) {
  Rng rng(29);
  const Tensor t = Tensor::random_uniform({2, 3, 4}, rng);
  const Tensor a = Tensor::random_uniform({4, 9}, rng);
  const Tensor out = mode_product(t, a, 2);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 3);
  EXPECT_EQ(out.dim(2), 9);
}

TEST(ModeProduct, CommutesAcrossDistinctModes) {
  // (T ×_0 A) ×_1 B == (T ×_1 B) ×_0 A — the property HOSVD relies on.
  Rng rng(31);
  const Tensor t = Tensor::random_uniform({3, 4, 2, 2}, rng);
  const Tensor a = Tensor::random_uniform({3, 5}, rng);
  const Tensor b = Tensor::random_uniform({4, 6}, rng);
  const Tensor ab = mode_product(mode_product(t, a, 0), b, 1);
  const Tensor ba = mode_product(mode_product(t, b, 1), a, 0);
  EXPECT_LT(Tensor::max_abs_diff(ab, ba), 1e-5);
}

TEST(ModeProduct, InnerDimMismatchThrows) {
  Tensor t({2, 3});
  Tensor a({4, 2});
  EXPECT_THROW(mode_product(t, a, 1), Error);
}

}  // namespace
}  // namespace tdc
