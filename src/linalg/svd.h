// Truncated SVD via the Gram-matrix route.
//
// For a (typically wide) matrix A ∈ R^{m×n} with m ≤ a few thousand, the left
// singular vectors are the eigenvectors of A·A^T and the singular values the
// square roots of its eigenvalues. This is exactly what truncated HOSVD
// (paper Eq. 12) needs: only U and σ, never V. The packed GEMM builds only
// the Gram matrix's lower triangle (gemm_strided_lower skips the tiles
// above the diagonal, about half the product), which is all the symmetric
// eigensolver (linalg/eig.h) reads; leading_left_singular_vectors takes its
// top-k path and never pays for vectors it discards. Every entry point is
// deterministic across thread counts and intra-op widths. For a 512×4608
// unfolding (a ResNet-18 layer-4 kernel) at k = 96 on one thread of a
// 4-vCPU Xeon host, the Gram takes 19–21 ms (~36 ms for the full product)
// and the top-k eigensolve 28–31 ms (58–66 ms before; eig.h has the
// phases). Deterministic is not the same as scalable: the eigensolve runs
// essentially single-threaded, so concurrency pays across matrices — one
// whole SVD per worker, as tucker_decompose_all runs them, or a lone
// tucker_decompose its two modes' SVDs — not inside one.
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
