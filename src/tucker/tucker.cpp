#include "tucker/tucker.h"

#include <algorithm>
#include <new>
#include <numeric>

#include "common/check.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "linalg/gemm.h"
#include "linalg/svd.h"
#include "tensor/unfold.h"

namespace tdc {

namespace {

void check_decomposable(const Tensor& kernel_cnrs, TuckerRanks ranks) {
  TDC_CHECK_MSG(kernel_cnrs.rank() == 4, "kernel must be rank-4 CNRS");
  TDC_CHECK_MSG(ranks.d1 >= 1 && ranks.d1 <= kernel_cnrs.dim(0),
                "d1 out of range");
  TDC_CHECK_MSG(ranks.d2 >= 1 && ranks.d2 <= kernel_cnrs.dim(1),
                "d2 out of range");
}

}  // namespace

TuckerFactors tucker_decompose(const Tensor& kernel_cnrs, TuckerRanks ranks) {
  check_decomposable(kernel_cnrs, ranks);
  if (fault_injected("tucker.decompose_alloc")) {
    throw std::bad_alloc();  // a factor or unfolding allocation failed
  }

  TuckerFactors f;
  // Mode-0 (input channel) and mode-1 (output channel) unfoldings; paper
  // modes 1 and 2 in 1-based numbering. The SVD reads the kernel itself as
  // its mode-0 unfolding [C, N·R·S] (CNRS storage already is that matrix),
  // so only mode 1 is unfolded into a copy. The two SVDs are independent
  // and their eigensolves run serially (linalg/eig.h), so they run as two
  // jobs: a lone decomposition overlaps them on two threads, while inside
  // tucker_decompose_all's jobs they run inline, one after the other. A
  // job's result never depends on where it runs, so the factors are the
  // same bits either way.
  parallel_jobs(2, [&](std::int64_t mode) {
    if (mode == 0) {
      f.u1 = leading_left_singular_vectors(kernel_cnrs, ranks.d1);
    } else {
      f.u2 = leading_left_singular_vectors(unfold_mode(kernel_cnrs, 1),
                                           ranks.d2);
    }
  });

  // Core = K ×_0 U1^T ×_1 U2^T. mode_product contracts with A as [in, out],
  // so passing U1 ([C, D1]) directly gives Σ_c K(c,...)·U1(c,d1).
  Tensor tmp = mode_product(kernel_cnrs, f.u1, 0);
  f.core = mode_product(tmp, f.u2, 1);
  return f;
}

std::vector<TuckerFactors> tucker_decompose_all(
    std::span<const Tensor* const> kernels, std::span<const TuckerRanks> ranks) {
  TDC_CHECK_MSG(kernels.size() == ranks.size(), "need one rank pair per kernel");
  const std::size_t n = kernels.size();
  for (std::size_t i = 0; i < n; ++i) {
    TDC_CHECK_MSG(kernels[i] != nullptr, "null kernel");
    check_decomposable(*kernels[i], ranks[i]);
  }
  // Largest kernel first (LPT): the long decompositions start at once and
  // the short ones fill in behind them, so the region ends close to
  // max(longest, total / workers).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return kernels[a]->numel() > kernels[b]->numel();
                   });
  std::vector<TuckerFactors> out(n);
  // One job per kernel: each decomposition runs serially, so its factors
  // are exactly those of a lone tucker_decompose.
  parallel_jobs(static_cast<std::int64_t>(n), [&](std::int64_t k) {
    const std::size_t i = order[static_cast<std::size_t>(k)];
    out[i] = tucker_decompose(*kernels[i], ranks[i]);
  });
  return out;
}

Tensor tucker_reconstruct(const TuckerFactors& f) {
  TDC_CHECK_MSG(f.core.rank() == 4, "core must be rank-4 [D1,D2,R,S]");
  TDC_CHECK_MSG(f.u1.rank() == 2 && f.u2.rank() == 2, "factors must be matrices");
  TDC_CHECK_MSG(f.u1.dim(1) == f.core.dim(0), "U1/core rank mismatch");
  TDC_CHECK_MSG(f.u2.dim(1) == f.core.dim(1), "U2/core rank mismatch");
  // K = Core ×_0 U1 ×_1 U2; mode_product contracts the tensor mode against
  // the first matrix dim, so transpose the factors.
  Tensor tmp = mode_product(f.core, transpose2d(f.u1), 0);
  return mode_product(tmp, transpose2d(f.u2), 1);
}

Tensor tucker_project(const Tensor& kernel_cnrs, TuckerRanks ranks) {
  return tucker_reconstruct(tucker_decompose(kernel_cnrs, ranks));
}

double tucker_projection_error(const Tensor& kernel_cnrs, TuckerRanks ranks) {
  const Tensor approx = tucker_project(kernel_cnrs, ranks);
  return Tensor::rel_error(approx, kernel_cnrs);
}

TuckerRanks tucker_latent_ranks(const Tensor& kernel_cnrs, double tol) {
  TDC_CHECK_MSG(kernel_cnrs.rank() == 4, "kernel must be rank-4 CNRS");
  // The SVD reads the kernel itself as its mode-0 unfolding (svd.h).
  const Tensor mode1 = unfold_mode(kernel_cnrs, 1);
  TuckerRanks out;
  for (int mode = 0; mode < 2; ++mode) {
    const std::vector<double> sv =
        left_singular_values(mode == 0 ? kernel_cnrs : mode1);
    const double largest = sv.empty() ? 0.0 : sv.front();
    std::int64_t rank = 0;
    for (const double s : sv) {
      if (s > tol * largest && largest > 0.0) {
        ++rank;
      }
    }
    // An all-zero (or numerically dead) unfolding has no singular value
    // above the threshold; clamp to 1 so the result always satisfies
    // tucker_decompose's d1/d2 >= 1 precondition.
    (mode == 0 ? out.d1 : out.d2) = std::max<std::int64_t>(rank, 1);
  }
  return out;
}

}  // namespace tdc
