// Truncated SVD via the Gram-matrix route.
//
// For a (typically wide) matrix A ∈ R^{m×n} with m ≤ a few thousand, the left
// singular vectors are the eigenvectors of A·A^T and the singular values the
// square roots of its eigenvalues. This is exactly what truncated HOSVD
// (paper Eq. 12) needs: only U and σ, never V. The Gram matrix is built by
// the engine's packed GEMM and handed to the tridiagonal eigensolver
// (linalg/eig.h), so every entry point here is deterministic across thread
// counts; leading_left_singular_vectors takes the top-k eigenpath and never
// pays for vectors it discards. Deterministic is not the same as scalable:
// at the Gram sizes of a CNN (n <= 512) the eigensolve gains nothing from
// more threads (measurements in eig.h), so concurrency pays across
// matrices — one whole SVD per worker, as tucker_decompose_all runs them —
// not inside one.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace tdc {

// Every entry point reads its argument `a` as the row-major matrix
// [a.dim(0), a.numel() / a.dim(0)]: a rank-2 tensor as itself, a higher-rank
// one as its mode-0 unfolding, which row-major storage already is — so a
// CNRS kernel's input-channel singular vectors need no unfolded copy.

struct SvdLeft {
  /// Singular values in descending order (size min(m, n), padded with zeros
  /// when the Gram spectrum has trailing negatives squashed to zero).
  std::vector<double> singular_values;
  /// Left singular vectors, shape [m, m]; column i pairs with
  /// singular_values[i] for i < min(m, n).
  Tensor u;
};

/// Left singular vectors + singular values of `a`.
SvdLeft svd_left(const Tensor& a);

/// Convenience: the first `k` columns of svd_left(a).u, shape [m, k] —
/// computed through the top-k eigensolver, so only the k kept vectors are
/// ever formed.
Tensor leading_left_singular_vectors(const Tensor& a, std::int64_t k);

/// Singular values only (descending, size min(m, n)): the vector-free
/// eigenvalue pass, for rank scans that never look at U.
std::vector<double> left_singular_values(const Tensor& a);

}  // namespace tdc
