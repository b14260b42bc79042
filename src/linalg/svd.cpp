#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/eig.h"
#include "linalg/gemm.h"

namespace tdc {

namespace {

/// Columns of `a` read as the matrix [dim(0), rest] (see svd.h).
std::int64_t matrix_cols(const Tensor& a) {
  TDC_CHECK_MSG(a.rank() >= 2, "svd expects a matrix or a higher-rank tensor");
  return a.numel() / a.dim(0);
}

/// Lower triangle of the Gram matrix G = A·A^T (m×m) through the packed
/// engine GEMM; the eigensolvers read nothing else (eig.h), so the tiles
/// above the diagonal are never computed.
Tensor gram(const Tensor& a) {
  const std::int64_t m = a.dim(0);
  const std::int64_t k = matrix_cols(a);
  Tensor g({m, m});
  gemm_strided_lower(m, k, a.raw(), k, 1, a.raw(), 1, k, g.raw(), m);
  return g;
}

std::vector<double> to_singular_values(const std::vector<double>& eigvals,
                                       std::int64_t m, std::int64_t n) {
  const std::int64_t k = std::min(m, n);
  std::vector<double> sv(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i) {
    // Numerical noise can push tiny eigenvalues slightly negative.
    sv[static_cast<std::size_t>(i)] =
        std::sqrt(std::max(0.0, eigvals[static_cast<std::size_t>(i)]));
  }
  return sv;
}

}  // namespace

SvdLeft svd_left(const Tensor& a) {
  EigResult eig = eig_symmetric(gram(a));
  SvdLeft out;
  out.singular_values =
      to_singular_values(eig.values, a.dim(0), matrix_cols(a));
  out.u = std::move(eig.vectors);
  return out;
}

Tensor leading_left_singular_vectors(const Tensor& a, std::int64_t k) {
  TDC_CHECK_MSG(a.rank() >= 2, "svd expects a matrix or a higher-rank tensor");
  TDC_CHECK_MSG(k >= 1 && k <= a.dim(0),
                "requested more singular vectors than rows");
  return eig_symmetric_topk(gram(a), k).vectors;
}

std::vector<double> left_singular_values(const Tensor& a) {
  return to_singular_values(eig_symmetric_values(gram(a)), a.dim(0),
                            matrix_cols(a));
}

}  // namespace tdc
