#include "linalg/eig.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace tdc {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

// Everything here runs serially except the reflector back-transform, whose
// parallel loop gives each vector to exactly one chunk and computes it in a
// fixed order. Every result is therefore bit-identical for any thread count
// / chunk partition — the same determinism contract the exec plans
// advertise.

/// Partial sums per dot product (see dot()).
constexpr std::int64_t kLanes = 8;

double fold(const double (&acc)[kLanes]) {
  return ((acc[0] + acc[4]) + (acc[2] + acc[6])) +
         ((acc[1] + acc[5]) + (acc[3] + acc[7]));
}

/// Σ x[i]·y[i] over [0, len). Lane l sums the indices ≡ l (mod kLanes) in
/// ascending order and the lanes fold in a fixed tree: independent partial
/// sums instead of one serial add chain, in an order this source fixes. The
/// compiler maps the lanes onto vector registers (two 4-wide AVX2 ones with
/// FMA in the native build); a hand-written intrinsic copy of this loop and
/// of sweep_column's measured no faster and produced the same bits, so
/// there is one portable implementation. Whether the build fuses each
/// multiply-add is the only difference between a native and a generic
/// build, and no result depends on threads.
double dot(const double* x, const double* y, std::int64_t len) {
  double acc[kLanes] = {};
  std::int64_t i = 0;
  for (; i + kLanes <= len; i += kLanes) {
    for (std::int64_t l = 0; l < kLanes; ++l) {
      acc[l] += x[i + l] * y[i + l];
    }
  }
  for (std::int64_t l = 0; i < len; ++i, ++l) {
    acc[l] += x[i] * y[i];
  }
  return fold(acc);
}

/// Symmetrize the lower triangle of `a` into a dense row-major double buffer
/// (the Jacobi kernel's input). Gram matrices square the condition number,
/// so all solver internals stay in double precision and only the final
/// eigenvectors round to float.
std::vector<double> load_symmetric(const Tensor& a) {
  const std::int64_t n = a.dim(0);
  std::vector<double> m(static_cast<std::size_t>(n * n));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float v = (i >= j) ? a(i, j) : a(j, i);
      m[static_cast<std::size_t>(i * n + j)] = static_cast<double>(v);
    }
  }
  return m;
}

/// The lower triangle of a symmetric matrix in double precision, stored
/// column-major: A(i, j), i >= j, at m[j·n + i], so column j runs
/// contiguously from its diagonal down (LAPACK's lower storage); nothing
/// above the diagonal is ever read. The entries are scaled by 2^scale, the
/// power of two that puts the largest one in [1, 2). Power-of-two scaling is
/// exact, so the solver sees the same problem at a magnitude where no square
/// in the reduction or the QL rotations overflows or underflows, and the
/// results map back exactly: eigenvalues × 2^−scale, vectors as they are.
struct LowerMatrix {
  std::int64_t n = 0;
  int scale = 0;
  std::vector<double> m;
};

/// Reads entry(i, j) for j <= i only.
template <class Entry>
LowerMatrix load_lower(std::int64_t n, const Entry& entry) {
  double largest = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      largest = std::max(largest, std::abs(entry(i, j)));
    }
  }
  LowerMatrix a;
  a.n = n;
  if (largest > 0.0 && std::isfinite(largest)) {
    a.scale = std::clamp(-std::ilogb(largest), -1000, 1000);
  }
  const double factor = std::ldexp(1.0, a.scale);
  a.m.assign(static_cast<std::size_t>(n * n), 0.0);
  // Column by column: strided reads, contiguous writes (the cheaper way
  // round for a transposing copy).
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = j; i < n; ++i) {
      a.m[static_cast<std::size_t>(j * n + i)] = factor * entry(i, j);
    }
  }
  return a;
}

LowerMatrix load_lower(const Tensor& a) {
  const std::int64_t n = a.dim(0);
  const float* p = a.raw();
  return load_lower(n, [&](std::int64_t i, std::int64_t j) {
    return static_cast<double>(p[i * n + j]);
  });
}

/// Eigenvalues back from the LowerMatrix scaling.
void unscale(std::vector<double>& values, int scale) {
  for (double& v : values) {
    v = std::ldexp(v, -scale);
  }
}

/// Householder reduction A = Q·T·Q^T with Q = H_0·H_1·…·H_{n-3}. The
/// reflectors are kept (the reduced LowerMatrix storage itself: column r
/// below the diagonal holds the vector of H_r, supported on indices
/// r+1…n-1) so callers can back-transform however many tridiagonal
/// eigenvectors they actually need.
struct Tridiagonal {
  std::int64_t n = 0;
  int scale = 0;            ///< LowerMatrix::scale of the input
  std::vector<double> d;    ///< diagonal of T, size n
  std::vector<double> e;    ///< sub-diagonal, e[i] couples i and i+1, size n-1
  std::vector<double> u;    ///< reflector r at u[r*n + i], i in (r, n)
  std::vector<double> tau;  ///< H_r = I - tau[r]·u_r·u_r^T, size max(n-2, 0)
};

/// One column of the reduction's sweep over the trailing triangle: column j
/// (`c`, rows j..n-1 of the column-major lower storage).
///   kUpdate: applies the previous step's pending rank-2 update
///            A ← A − u·w^T − w·u^T to the column;
///   kMatvec: then adds the column's share of s = A·v for the new reflector
///            v — the dot product of the column with v into s[j], and the
///            column times v[j] into s[i > j] (A is symmetric, so column j
///            below the diagonal is also row j right of it).
/// Every s[i] gets its terms in ascending column order. The pointers never
/// alias (distinct columns of the matrix, distinct work vectors); saying so
/// lets the compiler vectorize the row loop without overlap checks.
template <bool kUpdate, bool kMatvec>
void sweep_column(double* __restrict c, std::int64_t j, std::int64_t n,
                  const double* __restrict u, const double* __restrict w,
                  const double* __restrict v, double* __restrict s) {
  const double uj = kUpdate ? u[j] : 0.0;
  const double wj = kUpdate ? w[j] : 0.0;
  const double vj = kMatvec ? v[j] : 0.0;
  double diag = c[j];
  if constexpr (kUpdate) {
    diag -= u[j] * wj + w[j] * uj;
    c[j] = diag;
  }
  // Lane l of the column's dot product takes rows j+1+l, j+1+l+kLanes, …
  double acc[kLanes] = {};
  std::int64_t i = j + 1;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::int64_t l = 0; l < kLanes; ++l) {
      double x = c[i + l];
      if constexpr (kUpdate) {
        x -= u[i + l] * wj + w[i + l] * uj;
        c[i + l] = x;
      }
      if constexpr (kMatvec) {
        acc[l] += x * v[i + l];
        s[i + l] += x * vj;
      }
    }
  }
  for (std::int64_t l = 0; i < n; ++i, ++l) {
    double x = c[i];
    if constexpr (kUpdate) {
      x -= u[i] * wj + w[i] * uj;
      c[i] = x;
    }
    if constexpr (kMatvec) {
      acc[l] += x * v[i];
      s[i] += x * vj;
    }
  }
  if constexpr (kMatvec) {
    s[j] += diag * vj + fold(acc);
  }
}

/// Lower-triangle Householder tridiagonalization (LAPACK dsytd2, 'L'), one
/// pass over the trailing triangle per step. Step k first applies step
/// k−1's pending update to column k, builds reflector k from the updated
/// column, then sweeps columns k+1…n−1 once: each gets step k−1's update
/// and, in the same loop, adds its share of the matvec s = A22·u_k that
/// step k's own update needs. The textbook order makes two passes over the
/// full square per step (matvec, then update).
Tridiagonal tridiagonalize(LowerMatrix a) {
  const std::int64_t n = a.n;
  Tridiagonal t;
  t.n = n;
  t.scale = a.scale;
  t.d.assign(static_cast<std::size_t>(n), 0.0);
  t.e.assign(static_cast<std::size_t>(std::max<std::int64_t>(n - 1, 0)), 0.0);
  t.tau.assign(static_cast<std::size_t>(std::max<std::int64_t>(n - 2, 0)),
               0.0);
  double* m = a.m.data();
  std::vector<double> s(static_cast<std::size_t>(n));
  std::vector<double> w(static_cast<std::size_t>(n));
  // The reflector whose update (u, w) is still pending: column k−1 of m
  // below its diagonal, or null when step k−1 needed none.
  const double* u = nullptr;
  for (std::int64_t k = 0; k + 2 < n; ++k) {
    double* ck = m + k * n;
    if (u != nullptr) {
      sweep_column<true, false>(ck, k, n, u, w.data(), nullptr, nullptr);
    }
    t.d[static_cast<std::size_t>(k)] = ck[k];
    const double x0 = ck[k + 1];
    const double tail2 = dot(ck + k + 2, ck + k + 2, n - k - 2);
    const double* v = nullptr;
    if (tail2 < std::numeric_limits<double>::min()) {
      // Column already tridiagonal (a tail below the smallest normal double
      // is negligible next to the scaled matrix's O(1) entries); no
      // reflector.
      t.e[static_cast<std::size_t>(k)] = x0;
    } else {
      const double sigma = std::sqrt(x0 * x0 + tail2);
      const double alpha = (x0 >= 0.0) ? -sigma : sigma;
      // u_k overwrites the column below the diagonal: its tail already is
      // the column's tail. ‖u‖² = 2(σ² − α·x0); α·x0 ≤ 0 keeps it positive.
      ck[k + 1] = x0 - alpha;
      t.e[static_cast<std::size_t>(k)] = alpha;
      t.tau[static_cast<std::size_t>(k)] = 1.0 / (sigma * sigma - alpha * x0);
      v = ck;
      std::fill(s.begin() + k + 1, s.end(), 0.0);
    }
    for (std::int64_t j = k + 1; j < n; ++j) {
      double* cj = m + j * n;
      if (u != nullptr && v != nullptr) {
        sweep_column<true, true>(cj, j, n, u, w.data(), v, s.data());
      } else if (u != nullptr) {
        sweep_column<true, false>(cj, j, n, u, w.data(), nullptr, nullptr);
      } else if (v != nullptr) {
        sweep_column<false, true>(cj, j, n, nullptr, nullptr, v, s.data());
      }
    }
    if (v != nullptr) {
      // p = τ·s, w = p − (τ/2)(u_k·p)·u_k: the pending update of step k.
      const double tau = t.tau[static_cast<std::size_t>(k)];
      for (std::int64_t i = k + 1; i < n; ++i) {
        s[static_cast<std::size_t>(i)] *= tau;
      }
      const double kk =
          0.5 * tau * dot(v + k + 1, s.data() + k + 1, n - k - 1);
      for (std::int64_t i = k + 1; i < n; ++i) {
        w[static_cast<std::size_t>(i)] = s[static_cast<std::size_t>(i)] -
                                         kk * v[i];
      }
    }
    u = v;
  }
  if (u != nullptr) {
    for (std::int64_t j = n - 2; j < n; ++j) {
      sweep_column<true, false>(m + j * n, j, n, u, w.data(), nullptr,
                                nullptr);
    }
  }
  if (n >= 2) {
    t.d[static_cast<std::size_t>(n - 2)] = m[(n - 2) * n + (n - 2)];
    t.e[static_cast<std::size_t>(n - 2)] = m[(n - 2) * n + (n - 1)];
  }
  t.d[static_cast<std::size_t>(n - 1)] = m[(n - 1) * n + (n - 1)];
  t.u = std::move(a.m);
  return t;
}

/// Implicit-shift QL on (d, e), tracking eigenvectors: `w` is a row-major
/// [n, ncomp] matrix holding one tracked eigenvector per *row* (the
/// transpose of the textbook Z): a rotation on tridiagonal indices (i, i+1)
/// mixes two contiguous rows, so the update vectorizes along the component
/// axis. It runs serially, applied as each rotation is formed, so the
/// vector updates overlap the latency-bound scalar recurrence; a parallel
/// region per QL step costs more in wake-ups than the step's rotations take.
/// The rotations take sqrt(f² + g²) without std::hypot's rescaling: the
/// LowerMatrix scaling bounds f and g by a small multiple of n, so no
/// square overflows, and the shift's ratio g stays below 1/(2ε), since a
/// smaller e[l] would have deflated. Squares lose precision only below the
/// smallest normal double, |f|, |g| < 1e-154 — a block that small beside
/// T's O(1) scale, which a float input cannot produce but a double one
/// can: a root below kSafeRoot is retaken with std::hypot, so the rotation
/// stays orthogonal there too.
/// At or above this root the larger of f², g² is at least (smallest normal
/// double)/ε², so a subnormal smaller square is below ε² of it and cannot
/// change sqrt(f² + g²); below it the sum may have lost precision.
constexpr double kSafeRoot = 1e-138;

void tridiag_ql(std::vector<double>& d, std::vector<double>& ein,
                std::int64_t n, double* w, std::int64_t ncomp) {
  if (n <= 1) {
    return;
  }
  std::vector<double> e(static_cast<std::size_t>(n), 0.0);
  std::copy(ein.begin(), ein.end(), e.begin());

  for (std::int64_t l = 0; l < n; ++l) {
    int iter = 0;
    std::int64_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[static_cast<std::size_t>(m)]) +
                          std::abs(d[static_cast<std::size_t>(m + 1)]);
        if (std::abs(e[static_cast<std::size_t>(m)]) <= kEps * dd) {
          break;
        }
      }
      if (m == l) {
        break;
      }
      TDC_CHECK_MSG(++iter <= 50, "tridiagonal QL failed to converge");
      double g = (d[static_cast<std::size_t>(l + 1)] -
                  d[static_cast<std::size_t>(l)]) /
                 (2.0 * e[static_cast<std::size_t>(l)]);
      double r = std::sqrt(g * g + 1.0);
      g = d[static_cast<std::size_t>(m)] - d[static_cast<std::size_t>(l)] +
          e[static_cast<std::size_t>(l)] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      bool underflow = false;
      for (std::int64_t i = m - 1; i >= l; --i) {
        double f = s * e[static_cast<std::size_t>(i)];
        const double b = c * e[static_cast<std::size_t>(i)];
        r = std::sqrt(f * f + g * g);
        if (r < kSafeRoot) {
          r = std::hypot(f, g);
        }
        e[static_cast<std::size_t>(i + 1)] = r;
        if (r == 0.0) {
          d[static_cast<std::size_t>(i + 1)] -= p;
          e[static_cast<std::size_t>(m)] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[static_cast<std::size_t>(i + 1)] - p;
        r = (d[static_cast<std::size_t>(i)] - g) * s + 2.0 * c * b;
        p = s * r;
        d[static_cast<std::size_t>(i + 1)] = g + p;
        g = c * r - b;
        double* wi = w + i * ncomp;
        double* wi1 = wi + ncomp;
        for (std::int64_t j = 0; j < ncomp; ++j) {
          const double x = wi1[j];
          wi1[j] = s * wi[j] + c * x;
          wi[j] = c * wi[j] - s * x;
        }
      }
      if (underflow) {
        continue;
      }
      d[static_cast<std::size_t>(l)] -= p;
      e[static_cast<std::size_t>(l)] = g;
      e[static_cast<std::size_t>(m)] = 0.0;
    } while (m != l);
  }
}

/// Eigenvalues of (d, e) into `d`, unordered, by the root-free QL of Pal,
/// Walker and Kahan (LAPACK dsterf's QL branch): the iteration carries the
/// squared off-diagonals and the squared rotation parameters, so a step
/// costs two divisions per index and no square root (the rotation form
/// above takes a sqrt and two divisions). It is the same implicit-shift QL
/// with the same deflation test, |e[m]| <= ε(|d[m]| + |d[m+1]|), taken in
/// squares. An e² of zero always passes it, so every e² inside a block is
/// positive and so is every p + e² the inner loop divides by. No square
/// overflows on the scaled matrix (see tridiag_ql); subnormal ones cost
/// precision only in blocks some 1e-150 below T's scale, where it is
/// absolute error of that size.
void tridiag_values(std::vector<double>& d, const std::vector<double>& e,
                    std::int64_t n) {
  if (n <= 1) {
    return;
  }
  constexpr double kEps2 = kEps * kEps;
  std::vector<double> e2(static_cast<std::size_t>(n), 0.0);
  for (std::int64_t i = 0; i + 1 < n; ++i) {
    const double x = e[static_cast<std::size_t>(i)];
    e2[static_cast<std::size_t>(i)] = x * x;
  }
  for (std::int64_t l = 0; l < n; ++l) {
    int iter = 0;
    for (;;) {
      std::int64_t m = l;
      for (; m + 1 < n; ++m) {
        const double dd = std::abs(d[static_cast<std::size_t>(m)]) +
                          std::abs(d[static_cast<std::size_t>(m + 1)]);
        const double em = e2[static_cast<std::size_t>(m)];
        if (em <= kEps2 * dd * dd) {
          break;
        }
      }
      if (m + 1 < n) {
        // Split for good: the block's sweeps move d[m], which must not
        // reopen the test.
        e2[static_cast<std::size_t>(m)] = 0.0;
      }
      if (m == l) {
        break;
      }
      TDC_CHECK_MSG(++iter <= 50, "tridiagonal QL failed to converge");
      const double p0 = d[static_cast<std::size_t>(l)];
      const double rte = std::sqrt(e2[static_cast<std::size_t>(l)]);
      double sigma = (d[static_cast<std::size_t>(l + 1)] - p0) / (2.0 * rte);
      const double r0 = std::sqrt(sigma * sigma + 1.0);
      sigma = p0 - rte / (sigma + std::copysign(r0, sigma));
      double c = 1.0;
      double s = 0.0;
      double gamma = d[static_cast<std::size_t>(m)] - sigma;
      double p = gamma * gamma;
      for (std::int64_t i = m - 1; i >= l; --i) {
        const double bb = e2[static_cast<std::size_t>(i)];
        const double r = p + bb;
        if (i != m - 1) {
          e2[static_cast<std::size_t>(i + 1)] = s * r;
        }
        const double oldc = c;
        c = p / r;
        s = bb / r;
        const double oldgam = gamma;
        const double alpha = d[static_cast<std::size_t>(i)];
        gamma = c * (alpha - sigma) - s * oldgam;
        d[static_cast<std::size_t>(i + 1)] = oldgam + (alpha - gamma);
        p = (c != 0.0) ? (gamma * gamma) / c : oldc * bb;
      }
      e2[static_cast<std::size_t>(l)] = s * p;
      d[static_cast<std::size_t>(l)] = sigma + gamma;
    }
  }
}

/// Vectors per block of apply_reflectors: 8 vectors of n <= 512 doubles
/// (32 KiB) stay in L1 while every reflector streams past them once.
constexpr std::int64_t kReflectorBlock = 8;

/// V = Q·Z with Q = H_0·…·H_{n-3}, on the transposed layout: `w` is
/// row-major [nvec, n] with one eigenvector per row. H_r acts on the
/// component axis, so per vector it is a contiguous dot product plus a
/// contiguous axpy against the stored reflector. Vectors are independent —
/// the loop parallelizes over vector chunks and walks each chunk in blocks
/// of kReflectorBlock vectors, reflectors outermost inside a block — and
/// each vector's arithmetic never depends on the chunking or the blocking.
void apply_reflectors(const Tridiagonal& t, double* w, std::int64_t nvec) {
  const std::int64_t n = t.n;
  if (n < 3) {
    return;
  }
  parallel_for(0, nvec, kReflectorBlock, [&](std::int64_t vb, std::int64_t ve) {
    for (std::int64_t b0 = vb; b0 < ve; b0 += kReflectorBlock) {
      const std::int64_t b1 = std::min(b0 + kReflectorBlock, ve);
      for (std::int64_t r = n - 3; r >= 0; --r) {
        const double tau = t.tau[static_cast<std::size_t>(r)];
        if (tau == 0.0) {
          continue;
        }
        const double* ur = t.u.data() + r * n + r + 1;
        const std::int64_t len = n - r - 1;
        for (std::int64_t v = b0; v < b1; ++v) {
          double* wv = w + v * n + r + 1;
          const double f = tau * dot(ur, wv, len);
          for (std::int64_t c = 0; c < len; ++c) {
            wv[c] -= f * ur[c];
          }
        }
      }
    }
  });
}

/// Descending eigenvalue order with index tie-break (a strict weak order, so
/// the permutation is unique and the output deterministic).
std::vector<std::int64_t> descending_order(const std::vector<double>& d) {
  std::vector<std::int64_t> order(d.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int64_t x, std::int64_t y) {
    const double dx = d[static_cast<std::size_t>(x)];
    const double dy = d[static_cast<std::size_t>(y)];
    return dx != dy ? dx > dy : x < y;
  });
  return order;
}

/// LU factorization of (T − λI) with partial pivoting (tridiagonal +
/// second-superdiagonal fill-in), reused across the inverse-iteration solves
/// for one shift. Tiny pivots are floored at eps·‖T‖ so an exact eigenvalue
/// shift amplifies instead of dividing by zero — exactly what inverse
/// iteration wants.
struct ShiftedLu {
  std::vector<double> diag;  ///< pivots
  std::vector<double> sup1;  ///< first superdiagonal of U
  std::vector<double> sup2;  ///< second superdiagonal of U
  std::vector<double> mult;  ///< elimination multipliers
  std::vector<bool> pivoted;
};

ShiftedLu factor_shifted(const std::vector<double>& d,
                         const std::vector<double>& e, std::int64_t n,
                         double lambda, double norm_t) {
  ShiftedLu lu;
  lu.diag.assign(static_cast<std::size_t>(n), 0.0);
  lu.sup1.assign(static_cast<std::size_t>(n), 0.0);
  lu.sup2.assign(static_cast<std::size_t>(n), 0.0);
  lu.mult.assign(static_cast<std::size_t>(n), 0.0);
  lu.pivoted.assign(static_cast<std::size_t>(n), false);
  const double floor = std::max(kEps * norm_t, kEps);

  // Working row i: entries (p, q, r2) at columns (i, i+1, i+2).
  double p = d[0] - lambda;
  double q = n > 1 ? e[0] : 0.0;
  double r2 = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      const double sub = e[static_cast<std::size_t>(i)];
      const double nd = d[static_cast<std::size_t>(i + 1)] - lambda;
      const double ne = (i + 2 < n) ? e[static_cast<std::size_t>(i + 1)] : 0.0;
      if (std::abs(sub) > std::abs(p)) {
        lu.pivoted[static_cast<std::size_t>(i)] = true;
        lu.diag[static_cast<std::size_t>(i)] = sub;
        lu.sup1[static_cast<std::size_t>(i)] = nd;
        lu.sup2[static_cast<std::size_t>(i)] = ne;
        const double m = p / sub;
        lu.mult[static_cast<std::size_t>(i)] = m;
        p = q - m * nd;
        q = r2 - m * ne;
      } else {
        const double piv = std::abs(p) < floor ? std::copysign(floor, p) : p;
        lu.diag[static_cast<std::size_t>(i)] = piv;
        lu.sup1[static_cast<std::size_t>(i)] = q;
        lu.sup2[static_cast<std::size_t>(i)] = r2;
        const double m = sub / piv;
        lu.mult[static_cast<std::size_t>(i)] = m;
        p = nd - m * q;
        q = ne - m * r2;
      }
      r2 = 0.0;
    } else {
      lu.diag[static_cast<std::size_t>(i)] =
          std::abs(p) < floor ? std::copysign(floor, p) : p;
    }
  }
  return lu;
}

/// Solve (T − λI)x = b in place (b becomes x). Rescales deterministically
/// when a near-singular shift amplifies past 1e150 so long zero-clusters
/// cannot overflow; only the direction matters to the caller.
void solve_shifted(const ShiftedLu& lu, std::vector<double>& b) {
  const std::int64_t n = static_cast<std::int64_t>(b.size());
  for (std::int64_t i = 0; i + 1 < n; ++i) {
    if (lu.pivoted[static_cast<std::size_t>(i)]) {
      std::swap(b[static_cast<std::size_t>(i)],
                b[static_cast<std::size_t>(i + 1)]);
    }
    b[static_cast<std::size_t>(i + 1)] -=
        lu.mult[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  }
  for (std::int64_t i = n - 1; i >= 0; --i) {
    double x = b[static_cast<std::size_t>(i)];
    if (i + 1 < n) {
      x -= lu.sup1[static_cast<std::size_t>(i)] *
           b[static_cast<std::size_t>(i + 1)];
    }
    if (i + 2 < n) {
      x -= lu.sup2[static_cast<std::size_t>(i)] *
           b[static_cast<std::size_t>(i + 2)];
    }
    x /= lu.diag[static_cast<std::size_t>(i)];
    if (std::abs(x) > 1e150) {
      const double scale = 1.0 / std::abs(x);
      for (std::int64_t j = i; j < n; ++j) {
        b[static_cast<std::size_t>(j)] *= scale;
      }
      for (std::int64_t j = 0; j < i; ++j) {
        b[static_cast<std::size_t>(j)] *= scale;
      }
      x *= scale;
    }
    b[static_cast<std::size_t>(i)] = x;
  }
}

double norm2(const std::vector<double>& x) {
  double s = 0.0;
  for (const double v : x) {
    s += v * v;
  }
  return std::sqrt(s);
}

/// Eigenvectors of the tridiagonal (d, e) for the `want` leading (descending)
/// eigenvalues in `vals` — dstein-style inverse iteration: deterministic
/// per-vector random starts, perturbed shifts inside clusters, modified
/// Gram–Schmidt against earlier members of the same cluster. Returns a
/// row-major [want, n] matrix, one vector per row (the layout
/// apply_reflectors consumes).
std::vector<double> tridiag_topk_vectors(const std::vector<double>& d,
                                         const std::vector<double>& e,
                                         std::int64_t n,
                                         const std::vector<double>& vals,
                                         std::int64_t want) {
  double norm_t = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    double row = std::abs(d[static_cast<std::size_t>(i)]);
    if (i > 0) {
      row += std::abs(e[static_cast<std::size_t>(i - 1)]);
    }
    if (i + 1 < n) {
      row += std::abs(e[static_cast<std::size_t>(i)]);
    }
    norm_t = std::max(norm_t, row);
  }
  const double cluster_tol = std::max(1e-3 * norm_t, 1e-300);
  const double sep = std::max(10.0 * kEps * norm_t, 1e-300);

  std::vector<double> z(static_cast<std::size_t>(n * want), 0.0);
  std::vector<std::vector<double>> cluster;  // unit vectors of current cluster
  std::vector<double> x(static_cast<std::size_t>(n));
  double prev_lambda = 0.0;
  double prev_shift = 0.0;
  for (std::int64_t j = 0; j < want; ++j) {
    const double lambda = vals[static_cast<std::size_t>(j)];
    double shift = lambda;
    if (j > 0 && prev_lambda - lambda <= cluster_tol) {
      // Same cluster: keep the shifts distinct so successive solves do not
      // collapse onto one direction before orthogonalization.
      if (prev_shift - shift < sep) {
        shift = prev_shift - sep;
      }
    } else {
      cluster.clear();
    }
    const ShiftedLu lu = factor_shifted(d, e, n, shift, norm_t);

    for (int attempt = 0; attempt < 3; ++attempt) {
      Rng rng(0x7D1C0FFEEULL + 131ULL * static_cast<std::uint64_t>(j) +
              static_cast<std::uint64_t>(attempt));
      for (std::int64_t i = 0; i < n; ++i) {
        x[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
      }
      bool ok = false;
      for (int it = 0; it < 3; ++it) {
        solve_shifted(lu, x);
        for (const std::vector<double>& prev : cluster) {
          double dot = 0.0;
          for (std::int64_t i = 0; i < n; ++i) {
            dot += prev[static_cast<std::size_t>(i)] *
                   x[static_cast<std::size_t>(i)];
          }
          for (std::int64_t i = 0; i < n; ++i) {
            x[static_cast<std::size_t>(i)] -=
                dot * prev[static_cast<std::size_t>(i)];
          }
        }
        const double nrm = norm2(x);
        if (!(nrm > 0.0) || !std::isfinite(nrm)) {
          ok = false;
          break;
        }
        const double inv = 1.0 / nrm;
        for (double& v : x) {
          v *= inv;
        }
        ok = true;
      }
      if (ok) {
        break;
      }
    }

    cluster.push_back(x);
    std::copy(x.begin(), x.end(), z.begin() + j * n);
    prev_lambda = lambda;
    prev_shift = shift;
  }
  return z;
}

/// Assemble the public result from the vector-per-row buffer `w` ([*, n]):
/// column `col` of the output is row order[col] of `w`.
EigResult finalize(const std::vector<double>& d, const std::vector<double>& w,
                   std::int64_t n, const std::vector<std::int64_t>& order,
                   std::int64_t keep) {
  EigResult result;
  result.values.resize(static_cast<std::size_t>(keep));
  result.vectors = Tensor({n, keep});
  for (std::int64_t col = 0; col < keep; ++col) {
    const std::int64_t src = order[static_cast<std::size_t>(col)];
    result.values[static_cast<std::size_t>(col)] =
        d[static_cast<std::size_t>(src)];
    for (std::int64_t row = 0; row < n; ++row) {
      result.vectors(row, col) =
          static_cast<float>(w[static_cast<std::size_t>(src * n + row)]);
    }
  }
  return result;
}

void check_square(const Tensor& a) {
  TDC_CHECK_MSG(a.rank() == 2 && a.dim(0) == a.dim(1),
                "eig_symmetric expects a square matrix");
}

LowerMatrix load_lower(std::span<const double> a, std::int64_t n) {
  TDC_CHECK_MSG(n >= 1 && static_cast<std::int64_t>(a.size()) == n * n,
                "eig_symmetric expects a square n×n matrix");
  return load_lower(n, [&](std::int64_t i, std::int64_t j) {
    return a[static_cast<std::size_t>(i * n + j)];
  });
}

/// Leading k eigenpairs through the tridiagonal pipeline.
EigResult topk_tridiagonal(LowerMatrix a, std::int64_t k) {
  const std::int64_t n = a.n;
  TDC_CHECK_MSG(k >= 1 && k <= n, "eig_symmetric_topk: k out of range");
  const Tridiagonal t = tridiagonalize(std::move(a));
  // Eigenvalues via a vector-free QL pass on a copy; the original (d, e)
  // stay intact for the inverse-iteration solves.
  std::vector<double> dv = t.d;
  tridiag_values(dv, t.e, n);
  std::sort(dv.begin(), dv.end(), std::greater<double>());
  dv.resize(static_cast<std::size_t>(k));

  std::vector<double> w = tridiag_topk_vectors(t.d, t.e, n, dv, k);
  apply_reflectors(t, w.data(), k);

  EigResult result;
  unscale(dv, t.scale);
  result.values = std::move(dv);
  result.vectors = Tensor({n, k});
  for (std::int64_t col = 0; col < k; ++col) {
    const double* wv = w.data() + col * n;
    for (std::int64_t row = 0; row < n; ++row) {
      result.vectors(row, col) = static_cast<float>(wv[row]);
    }
  }
  return result;
}

/// All eigenvalues (descending) through the tridiagonal pipeline.
std::vector<double> values_tridiagonal(LowerMatrix a) {
  Tridiagonal t = tridiagonalize(std::move(a));
  tridiag_values(t.d, t.e, t.n);
  std::sort(t.d.begin(), t.d.end(), std::greater<double>());
  unscale(t.d, t.scale);
  return t.d;
}

/// All eigenpairs through the tridiagonal pipeline. W starts as the
/// identity in the tridiagonal basis (one tracked vector per row), picks up
/// the QL rotations, then the reflector back-transform maps it to the
/// original basis — V = Q·Z_tri.
EigResult full_tridiagonal(LowerMatrix a) {
  const std::int64_t n = a.n;
  Tridiagonal t = tridiagonalize(std::move(a));
  std::vector<double> w(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i * n + i)] = 1.0;
  }
  tridiag_ql(t.d, t.e, n, w.data(), n);
  apply_reflectors(t, w.data(), n);
  EigResult result = finalize(t.d, w, n, descending_order(t.d), n);
  unscale(result.values, t.scale);
  return result;
}

}  // namespace

EigResult eig_symmetric_ql(const Tensor& a) {
  check_square(a);
  return full_tridiagonal(load_lower(a));
}

EigResult eig_symmetric_ql(std::span<const double> a, std::int64_t n,
                           std::int64_t k) {
  LowerMatrix lower = load_lower(a, n);
  return k == n ? full_tridiagonal(std::move(lower))
                : topk_tridiagonal(std::move(lower), k);
}

EigResult eig_symmetric(const Tensor& a) {
  check_square(a);
  if (a.dim(0) <= kEigJacobiFallbackDim) {
    return eig_symmetric_jacobi(a);
  }
  return eig_symmetric_ql(a);
}

EigResult eig_symmetric_topk(const Tensor& a, std::int64_t k) {
  check_square(a);
  const std::int64_t n = a.dim(0);
  TDC_CHECK_MSG(k >= 1 && k <= n, "eig_symmetric_topk: k out of range");
  if (n <= kEigJacobiFallbackDim) {
    EigResult full = eig_symmetric_jacobi(a);
    EigResult result;
    result.values.assign(full.values.begin(), full.values.begin() + k);
    result.vectors = Tensor({n, k});
    for (std::int64_t row = 0; row < n; ++row) {
      for (std::int64_t col = 0; col < k; ++col) {
        result.vectors(row, col) = full.vectors(row, col);
      }
    }
    return result;
  }
  return topk_tridiagonal(load_lower(a), k);
}

std::vector<double> eig_symmetric_values(const Tensor& a) {
  check_square(a);
  if (a.dim(0) <= kEigJacobiFallbackDim) {
    return eig_symmetric_jacobi(a).values;
  }
  return values_tridiagonal(load_lower(a));
}

EigResult eig_symmetric_jacobi(const Tensor& a, int max_sweeps, double tol) {
  check_square(a);
  const std::int64_t n = a.dim(0);

  std::vector<double> m = load_symmetric(a);
  std::vector<double> v(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i * n + i)] = 1.0;
  }

  auto off_norm = [&]() {
    double s = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        const double x = m[static_cast<std::size_t>(i * n + j)];
        s += 2.0 * x * x;
      }
    }
    return std::sqrt(s);
  };

  const double scale = std::max(1.0, std::sqrt(std::inner_product(
      m.begin(), m.end(), m.begin(), 0.0)));

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_norm() <= tol * scale) {
      break;
    }
    for (std::int64_t p = 0; p < n - 1; ++p) {
      for (std::int64_t q = p + 1; q < n; ++q) {
        const double apq = m[static_cast<std::size_t>(p * n + q)];
        if (std::abs(apq) <= 1e-300) {
          continue;
        }
        const double app = m[static_cast<std::size_t>(p * n + p)];
        const double aqq = m[static_cast<std::size_t>(q * n + q)];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        // Apply the rotation G(p, q, θ) on both sides of M and accumulate in V.
        for (std::int64_t k = 0; k < n; ++k) {
          const double mkp = m[static_cast<std::size_t>(k * n + p)];
          const double mkq = m[static_cast<std::size_t>(k * n + q)];
          m[static_cast<std::size_t>(k * n + p)] = c * mkp - s * mkq;
          m[static_cast<std::size_t>(k * n + q)] = s * mkp + c * mkq;
        }
        for (std::int64_t k = 0; k < n; ++k) {
          const double mpk = m[static_cast<std::size_t>(p * n + k)];
          const double mqk = m[static_cast<std::size_t>(q * n + k)];
          m[static_cast<std::size_t>(p * n + k)] = c * mpk - s * mqk;
          m[static_cast<std::size_t>(q * n + k)] = s * mpk + c * mqk;
        }
        // V is kept transposed (one eigenvector per row), so the rotation
        // mixes two contiguous rows.
        double* vp = v.data() + p * n;
        double* vq = v.data() + q * n;
        for (std::int64_t k = 0; k < n; ++k) {
          const double vkp = vp[k];
          const double vkq = vq[k];
          vp[k] = c * vkp - s * vkq;
          vq[k] = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<double> diag(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    diag[static_cast<std::size_t>(i)] = m[static_cast<std::size_t>(i * n + i)];
  }
  return finalize(diag, v, n, descending_order(diag), n);
}

}  // namespace tdc
