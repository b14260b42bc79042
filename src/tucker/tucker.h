// Tucker-2 decomposition of convolution kernels (paper Section 3).
//
// A kernel K ∈ R^{C×N×R×S} (CNRS order) is decomposed along the channel modes
// only, preserving the spatial modes:
//   K(c,n,r,s) = Σ_{d1,d2} Core(d1,d2,r,s) · U1(c,d1) · U2(n,d2)     (Eq. 1)
// yielding the three-stage convolution pipeline 1×1 (C→D1) → R×S core
// (D1→D2) → 1×1 (D2→N) (Eqs. 2–4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace tdc {

/// Tucker ranks [D1, D2] for the two channel modes.
struct TuckerRanks {
  std::int64_t d1 = 0;  ///< latent input channels of the core convolution
  std::int64_t d2 = 0;  ///< latent output channels of the core convolution
  bool operator==(const TuckerRanks&) const = default;
};

/// The decomposed components of a convolution kernel.
struct TuckerFactors {
  Tensor core;  ///< [D1, D2, R, S]
  Tensor u1;    ///< [C, D1]  (input-channel factor)
  Tensor u2;    ///< [N, D2]  (output-channel factor)

  TuckerRanks ranks() const { return {u1.dim(1), u2.dim(1)}; }
};

/// Truncated HOSVD of a CNRS kernel tensor at the given channel ranks:
/// U1 = leading D1 left singular vectors of the mode-C unfolding, U2 likewise
/// for mode-N, Core = K ×_C U1^T ×_N U2^T. Requires 1 <= d1 <= C, 1 <= d2 <= N.
/// The two modes' SVDs run as two parallel_jobs jobs, so a lone call takes
/// up to two threads (inline, one after the other, inside a region or a
/// job); the factors are the same bits at any thread count or width.
TuckerFactors tucker_decompose(const Tensor& kernel_cnrs, TuckerRanks ranks);

/// tucker_decompose(*kernels[i], ranks[i]) for every i, one parallel_jobs
/// job per kernel, largest first: up to job_width() threads decompose the
/// layers of a build concurrently, each one serially, so every result stays
/// bitwise tucker_decompose's at any thread count and arena split. Every kernel and rank pair is validated on the calling
/// thread before any work starts; an error inside a decomposition is
/// rethrown there too, and no result is returned.
std::vector<TuckerFactors> tucker_decompose_all(
    std::span<const Tensor* const> kernels, std::span<const TuckerRanks> ranks);

/// Reconstruct the (approximate) CNRS kernel: Core ×_1 U1 ×_2 U2 (Eq. 1).
Tensor tucker_reconstruct(const TuckerFactors& f);

/// Project a CNRS kernel tensor to the set of tensors with Tucker ranks at
/// most `ranks` (the K̂-update of the ADMM loop, Eq. 12): decompose then
/// reconstruct.
Tensor tucker_project(const Tensor& kernel_cnrs, TuckerRanks ranks);

/// Relative Frobenius approximation error of the projection at given ranks.
double tucker_projection_error(const Tensor& kernel_cnrs, TuckerRanks ranks);

/// Latent Tucker ranks of a kernel: the number of singular values of each
/// channel-mode unfolding above `tol` relative to the largest one, clamped
/// to >= 1 (an all-zero kernel still has valid rank-(1,1) factors), so the
/// result is always accepted by tucker_decompose.
TuckerRanks tucker_latent_ranks(const Tensor& kernel_cnrs, double tol = 1e-6);

}  // namespace tdc
