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
//     production path. Every entry reads only the lower triangle (the Gram
//     route computes nothing else; svd.h) into double precision, scaled by
//     the power of two that brings its largest entry to [1, 2) — exact, and
//     it keeps every square inside the double range. Then:
//       1. a one-pass lower-triangle Householder tridiagonalization (LAPACK
//          dsytd2): each step's rank-2 update and the next step's matvec
//          share one sweep over the trailing triangle;
//       2. implicit-shift QL on the tridiagonal form. The full solver's
//          rotations take sqrt(f² + g²) directly: on the scaled matrix no
//          square overflows, so std::hypot's rescaling is needed only for
//          a root below 1e-138, where the squares may be subnormal (a
//          block some 1e-150 below the matrix's scale; only a double input
//          can hold one). The eigenvalues-only pass (eig_symmetric_values,
//          and the eigenvalues of eig_symmetric_topk) is the root-free QL
//          of Pal, Walker and Kahan (LAPACK dsterf): no square root per
//          rotation at all;
//       3. for eig_symmetric_topk, inverse iteration on the tridiagonal
//          form for the k kept vectors only, and a k-vector back-transform
//          through the stored reflectors.
//     The dot products of steps 1 and 3 sum in 8 fixed lanes, written in
//     plain C++ that the compiler vectorizes (AVX2 with FMA in the native
//     build). Only the back-transform runs through the shared parallel
//     runtime, split over vectors with each vector computed by one chunk in
//     a fixed order; the reduction, QL (the full solver applies each
//     rotation to its n vectors as it forms it) and inverse iteration run
//     serially. The
//     output is therefore bit-identical for any thread count or intra-op
//     width — the same invariant every exec plan guarantees. A solve thus
//     runs essentially single-threaded: a build parallelises across layers
//     instead (tucker_decompose_all, tucker/tucker.h), one serial solve
//     per job, and a lone tucker_decompose overlaps its two modes' solves.
//     At n = 512, k = 96 (a 512×4608 unfolding, the ResNet-18 layer-4 case)
//     on one thread of a 4-vCPU Xeon host: reduction 12–16 ms (~40 ms for
//     the two-pass, full-square one), eigenvalues 6.2–6.6 ms root-free
//     (7.8–8.2 with a sqrt per rotation, ~10–12 with std::hypot on every
//     one), inverse iteration ~3 ms, back-transform 5–8 ms (~10–13 with
//     serial dot products): eig_symmetric_topk 28–31 ms against 58–66. The
//     full eig_symmetric_ql, which also applies every QL rotation to n
//     vectors and back-transforms all n, takes ~100–120 ms at any thread
//     count (190–220 ms at 1 thread and ~300 ms at 4 when a parallel region
//     replayed each QL step's rotations), ≥50× faster than Jacobi;
//     bench_eig enforces a 20× floor.
//   * eig_symmetric_jacobi — the original serial cyclic-Jacobi kernel,
//     retained as the small-n fallback (eig_symmetric dispatches to it for
//     n <= kEigJacobiFallbackDim, where O(n³)·sweeps is negligible and its
//     simplicity wins) and as the independent oracle of the test suite.
//     It too reads only the lower triangle.
#pragma once

#include <cstdint>
#include <span>
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
/// read: whatever lies above the diagonal, NaN included, never changes a
/// bit of the result). Tridiagonal QL for n > kEigJacobiFallbackDim, Jacobi
/// at or below. Deterministic: bit-identical results for any
/// TDC_NUM_THREADS. Throws if `a` is not square.
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

/// The same pipeline on the row-major n×n double matrix `a` (lower
/// triangle read), so the tests can feed magnitudes a float cannot hold
/// (Grams scaled by 1e±150) through the reduction and both QL variants:
/// k = n runs eig_symmetric_ql's full solver, 1 <= k < n
/// eig_symmetric_topk's path (values-only QL, inverse iteration) for the
/// leading k pairs. Nothing else calls it.
EigResult eig_symmetric_ql(std::span<const double> a, std::int64_t n,
                           std::int64_t k);

/// The original serial cyclic-Jacobi kernel: simple, robust, O(n³)·sweeps.
/// Small-n fallback of eig_symmetric and the oracle of tests/test_eig.cpp.
EigResult eig_symmetric_jacobi(const Tensor& a, int max_sweeps = 64,
                               double tol = 1e-11);

}  // namespace tdc
