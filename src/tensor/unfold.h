// Mode-k matricization (unfolding) and its inverse.
//
// The truncated-HOSVD projection in the ADMM K̂-update (paper Eq. 12) works on
// the mode-1 and mode-2 unfoldings of the 4-D kernel tensor:
//   T ∈ R^{C×N×R×S}:  T_(1) ∈ R^{C×(N·R·S)},  T_(2) ∈ R^{N×(C·R·S)}.
// unfold_mode(T, k) places mode k as rows and flattens the remaining modes
// into columns in row-major order (the last mode varies fastest). Kolda–Bader
// order the columns the other way round; the row space, and so every HOSVD
// factor, is the same under either order. For mode 0 of a row-major tensor
// the unfolding is the tensor's own storage viewed as [dims[0], rest].
#pragma once

#include "tensor/tensor.h"

namespace tdc {

/// Mode-k unfolding of an arbitrary-rank tensor. Returns a rank-2 tensor of
/// shape [dims[mode], numel / dims[mode]].
Tensor unfold_mode(const Tensor& t, int mode);

/// Inverse of unfold_mode: folds a [dims[mode], rest] matrix back into the
/// original shape `dims`.
Tensor fold_mode(const Tensor& m, int mode, std::vector<std::int64_t> dims);

/// Mode-k tensor-times-matrix product: (T ×_k A)(..., j, ...) =
/// Σ_i T(..., i, ...) · A(i, j), where i runs over dims[mode] and A is
/// [dims[mode], J]. The result has dims[mode] replaced by J. One packed
/// GEMM over the mode unfolding (a copy unless mode 0), folded back.
Tensor mode_product(const Tensor& t, const Tensor& a, int mode);

}  // namespace tdc
