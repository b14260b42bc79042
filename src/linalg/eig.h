// Symmetric eigensolvers.
//
// The Tucker truncation in the ADMM K̂-update and every plan-compile-time
// factorization need the leading left singular vectors of the mode-1/mode-2
// unfoldings T_(k). Rather than a full SVD of a C×(N·R·S) matrix we
// eigendecompose the small Gram matrix T_(k)·T_(k)^T (at most 2048×2048 for
// the models in this repo); singular values are the square roots of its
// eigenvalues and the eigenvectors are the left singular vectors.
//
// Two solvers back that route:
//   * eig_symmetric / eig_symmetric_topk / eig_symmetric_values — the
//     production path: Householder tridiagonalization followed by
//     implicit-shift QL on the tridiagonal form. The O(n³) stages (the
//     trailing-block updates, the QL rotation accumulation, the reflector
//     back-transform) run through the shared parallel runtime with
//     fixed-order per-element reductions, so the output stays
//     bit-identical across thread counts — the same invariant every exec
//     plan guarantees. At the sizes this repo decomposes (n <= 512) the
//     split buys no speed: on a 4-vCPU Xeon host eig_symmetric_topk(n=512,
//     k=128) takes 79 ms at 1 thread, 73 ms at 2 and 79 ms at 4, and
//     smaller n gets slower with more threads (n=128: 2.1 ms at 1 thread,
//     4.3 ms at 4). A build therefore parallelises across layers instead
//     (tucker_decompose_all, tucker/tucker.h), one serial solve per
//     worker. The top-k
//     variant computes only the leading eigenvectors (tridiagonal inverse
//     iteration + a k-column back-transform), which is what
//     tucker_decompose actually consumes.
//   * eig_symmetric_jacobi — the original serial cyclic-Jacobi kernel,
//     retained as the small-n fallback (eig_symmetric dispatches to it for
//     n <= kEigJacobiFallbackDim, where O(n³)·sweeps is negligible and its
//     simplicity wins) and as the independent oracle of the test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace tdc {

struct EigResult {
  /// Eigenvalues in descending order (all n for the full solvers, the
  /// leading k for eig_symmetric_topk).
  std::vector<double> values;
  /// Column i of `vectors` is the eigenvector for values[i]; shape [n, n]
  /// for the full solvers, [n, k] for eig_symmetric_topk.
  Tensor vectors;
};

/// At or below this dimension eig_symmetric and eig_symmetric_topk dispatch
/// to the Jacobi kernel instead of the tridiagonal pipeline.
inline constexpr std::int64_t kEigJacobiFallbackDim = 32;

/// Eigendecomposition of a symmetric matrix (only the lower triangle is
/// read). Tridiagonal QL for n > kEigJacobiFallbackDim, Jacobi at or below.
/// Deterministic: bit-identical results for any TDC_NUM_THREADS.
/// Throws if `a` is not square.
EigResult eig_symmetric(const Tensor& a);

/// The leading `k` eigenpairs only (descending): tridiagonalization, QL for
/// the eigenvalues, then inverse iteration + back-transform for just the k
/// vectors kept — O(n³) for the reduction but only O(n²k) for the vectors.
/// Requires 1 <= k <= n. Same determinism contract as eig_symmetric. Within
/// a cluster of (near-)equal eigenvalues the returned vectors span the same
/// eigenspace as any other solver's but are an arbitrary orthonormal basis
/// of it, exactly like the full solvers.
EigResult eig_symmetric_topk(const Tensor& a, std::int64_t k);

/// All eigenvalues in descending order, no eigenvectors (the latent-rank
/// scan needs nothing else). Same dispatch and determinism as eig_symmetric.
std::vector<double> eig_symmetric_values(const Tensor& a);

/// The tridiagonal-QL pipeline at any n (no Jacobi dispatch) — exposed so
/// the test suite can pit it against the Jacobi oracle on small matrices.
EigResult eig_symmetric_ql(const Tensor& a);

/// The original serial cyclic-Jacobi kernel: simple, robust, O(n³)·sweeps.
/// Small-n fallback of eig_symmetric and the oracle of tests/test_eig.cpp.
EigResult eig_symmetric_jacobi(const Tensor& a, int max_sweeps = 64,
                               double tol = 1e-11);

}  // namespace tdc
