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

// Every parallel loop in this file assigns each output element to exactly one
// chunk and accumulates it with a serial, index-ordered inner loop, so the
// result is bit-identical for any thread count / chunk partition — the same
// determinism contract the exec plans advertise.

/// Symmetrize the lower triangle of `a` into a dense row-major double buffer.
/// Gram matrices square the condition number, so all solver internals stay in
/// double precision and only the final eigenvectors round to float.
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

/// Householder reduction A = Q·T·Q^T with Q = H_0·H_1·…·H_{n-3}. The
/// reflectors are kept (row r of `u` holds the vector of H_r, supported on
/// indices r+1…n-1) so callers can back-transform however many tridiagonal
/// eigenvectors they actually need.
struct Tridiagonal {
  std::int64_t n = 0;
  std::vector<double> d;    ///< diagonal of T, size n
  std::vector<double> e;    ///< sub-diagonal, e[i] couples i and i+1, size n-1
  std::vector<double> u;    ///< reflector r at u[r*n + i], i in (r, n)
  std::vector<double> tau;  ///< H_r = I - tau[r]·u_r·u_r^T, size max(n-2, 0)
};

Tridiagonal tridiagonalize(std::vector<double> m, std::int64_t n) {
  Tridiagonal t;
  t.n = n;
  t.d.resize(static_cast<std::size_t>(n));
  t.e.assign(static_cast<std::size_t>(std::max<std::int64_t>(n - 1, 0)), 0.0);
  t.u.assign(static_cast<std::size_t>(n * n), 0.0);
  t.tau.assign(static_cast<std::size_t>(std::max<std::int64_t>(n - 2, 0)),
               0.0);

  std::vector<double> p(static_cast<std::size_t>(n));
  std::vector<double> w(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k + 2 < n; ++k) {
    double* uk = t.u.data() + k * n;
    const double x0 = m[static_cast<std::size_t>((k + 1) * n + k)];
    double tail2 = 0.0;  // energy strictly below the sub-diagonal
    for (std::int64_t i = k + 2; i < n; ++i) {
      const double x = m[static_cast<std::size_t>(i * n + k)];
      tail2 += x * x;
    }
    t.d[static_cast<std::size_t>(k)] = m[static_cast<std::size_t>(k * n + k)];
    if (tail2 == 0.0) {
      // Column already tridiagonal; no reflector.
      t.e[static_cast<std::size_t>(k)] = x0;
      continue;
    }
    const double sigma = std::sqrt(x0 * x0 + tail2);
    const double alpha = (x0 >= 0.0) ? -sigma : sigma;
    uk[k + 1] = x0 - alpha;
    for (std::int64_t i = k + 2; i < n; ++i) {
      uk[i] = m[static_cast<std::size_t>(i * n + k)];
    }
    // ‖u‖² = 2σ(σ + |x0|) = 2(σ² − α·x0); α·x0 ≤ 0 keeps it safely positive.
    const double tau = 2.0 / (2.0 * (sigma * sigma - alpha * x0));
    t.e[static_cast<std::size_t>(k)] = alpha;
    t.tau[static_cast<std::size_t>(k)] = tau;

    // p = τ·A22·u over the trailing block; one row per element, fixed-order
    // inner accumulation. Four rows share each u[j] load and run four
    // independent add chains (one row's chain alone is latency-bound);
    // every row still sums its own products in ascending j, so the result
    // does not depend on how rows are grouped or chunked.
    parallel_for(k + 1, n, 8, [&](std::int64_t b, std::int64_t e_) {
      std::int64_t i = b;
      for (; i + 4 <= e_; i += 4) {
        const double* r0 = m.data() + i * n;
        const double* r1 = r0 + n;
        const double* r2 = r1 + n;
        const double* r3 = r2 + n;
        double a0 = 0.0;
        double a1 = 0.0;
        double a2 = 0.0;
        double a3 = 0.0;
        for (std::int64_t j = k + 1; j < n; ++j) {
          const double uj = uk[j];
          a0 += r0[j] * uj;
          a1 += r1[j] * uj;
          a2 += r2[j] * uj;
          a3 += r3[j] * uj;
        }
        p[static_cast<std::size_t>(i)] = tau * a0;
        p[static_cast<std::size_t>(i + 1)] = tau * a1;
        p[static_cast<std::size_t>(i + 2)] = tau * a2;
        p[static_cast<std::size_t>(i + 3)] = tau * a3;
      }
      for (; i < e_; ++i) {
        const double* row = m.data() + i * n;
        double acc = 0.0;
        for (std::int64_t j = k + 1; j < n; ++j) {
          acc += row[j] * uk[j];
        }
        p[static_cast<std::size_t>(i)] = tau * acc;
      }
    });
    double upk = 0.0;
    for (std::int64_t i = k + 1; i < n; ++i) {
      upk += uk[i] * p[static_cast<std::size_t>(i)];
    }
    const double kk = 0.5 * tau * upk;
    for (std::int64_t i = k + 1; i < n; ++i) {
      w[static_cast<std::size_t>(i)] = p[static_cast<std::size_t>(i)] -
                                       kk * uk[i];
    }
    // A22 ← A22 − u·w^T − w·u^T, full trailing square so the buffer stays
    // symmetric and the next matvec reads contiguous rows.
    parallel_for(k + 1, n, 8, [&](std::int64_t b, std::int64_t e_) {
      for (std::int64_t i = b; i < e_; ++i) {
        double* row = m.data() + i * n;
        const double ui = uk[i];
        const double wi = w[static_cast<std::size_t>(i)];
        for (std::int64_t j = k + 1; j < n; ++j) {
          row[j] -= ui * w[static_cast<std::size_t>(j)] + wi * uk[j];
        }
      }
    });
  }
  if (n >= 2) {
    t.d[static_cast<std::size_t>(n - 2)] =
        m[static_cast<std::size_t>((n - 2) * n + (n - 2))];
    t.e[static_cast<std::size_t>(n - 2)] =
        m[static_cast<std::size_t>((n - 1) * n + (n - 2))];
  }
  t.d[static_cast<std::size_t>(n - 1)] =
      m[static_cast<std::size_t>((n - 1) * n + (n - 1))];
  return t;
}

struct Rotation {
  std::int64_t i;
  double c;
  double s;
};

/// Implicit-shift QL on (d, e). When `w` is non-null it is a row-major
/// [n, ncomp] matrix holding one tracked eigenvector per *row* (the
/// transpose of the textbook Z): a rotation on tridiagonal indices (i, i+1)
/// mixes two contiguous rows, so the update vectorizes along the component
/// axis and parallelizes over component chunks. Every chunk replays the
/// whole rotation batch of a QL step in recorded order, and an element is
/// only ever combined with its same-component neighbor, so the chunking
/// never changes a single result bit.
void tridiag_ql(std::vector<double>& d, std::vector<double>& ein,
                std::int64_t n, double* w, std::int64_t ncomp) {
  if (n <= 1) {
    return;
  }
  std::vector<double> e(static_cast<std::size_t>(n), 0.0);
  std::copy(ein.begin(), ein.end(), e.begin());
  std::vector<Rotation> rots;

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
      double r = std::hypot(g, 1.0);
      g = d[static_cast<std::size_t>(m)] - d[static_cast<std::size_t>(l)] +
          e[static_cast<std::size_t>(l)] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      rots.clear();
      bool underflow = false;
      for (std::int64_t i = m - 1; i >= l; --i) {
        double f = s * e[static_cast<std::size_t>(i)];
        const double b = c * e[static_cast<std::size_t>(i)];
        r = std::hypot(f, g);
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
        if (w != nullptr) {
          rots.push_back({i, c, s});
        }
      }
      if (w != nullptr && !rots.empty()) {
        parallel_for(0, ncomp, 64, [&](std::int64_t jb, std::int64_t je) {
          for (const Rotation& rot : rots) {
            double* wi = w + rot.i * ncomp;
            double* wi1 = wi + ncomp;
            for (std::int64_t j = jb; j < je; ++j) {
              const double f = wi1[j];
              wi1[j] = rot.s * wi[j] + rot.c * f;
              wi[j] = rot.c * wi[j] - rot.s * f;
            }
          }
        });
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

/// V = Q·Z with Q = H_0·…·H_{n-3}, on the transposed layout: `w` is
/// row-major [nvec, n] with one eigenvector per row. H_r acts on the
/// component axis, so per vector it is a contiguous dot product plus a
/// contiguous axpy against the stored reflector. Vectors are independent —
/// the loop parallelizes over vector chunks (reflectors outermost inside a
/// chunk so u_r is reused across the chunk's rows), and each vector's
/// arithmetic never depends on the chunking.
void apply_reflectors(const Tridiagonal& t, double* w, std::int64_t nvec) {
  const std::int64_t n = t.n;
  if (n < 3) {
    return;
  }
  parallel_for(0, nvec, 8, [&](std::int64_t vb, std::int64_t ve) {
    for (std::int64_t r = n - 3; r >= 0; --r) {
      const double tau = t.tau[static_cast<std::size_t>(r)];
      if (tau == 0.0) {
        continue;
      }
      const double* ur = t.u.data() + r * n;
      for (std::int64_t v = vb; v < ve; ++v) {
        double* wv = w + v * n;
        double dot = 0.0;
        for (std::int64_t c = r + 1; c < n; ++c) {
          dot += ur[c] * wv[c];
        }
        dot *= tau;
        for (std::int64_t c = r + 1; c < n; ++c) {
          wv[c] -= dot * ur[c];
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

}  // namespace

EigResult eig_symmetric_ql(const Tensor& a) {
  check_square(a);
  const std::int64_t n = a.dim(0);
  Tridiagonal t = tridiagonalize(load_symmetric(a), n);
  // W starts as the identity in the tridiagonal basis (one tracked vector
  // per row), picks up the QL rotations, then the reflector back-transform
  // maps it to the original basis — V = Q·Z_tri.
  std::vector<double> w(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i * n + i)] = 1.0;
  }
  tridiag_ql(t.d, t.e, n, w.data(), n);
  apply_reflectors(t, w.data(), n);
  return finalize(t.d, w, n, descending_order(t.d), n);
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

  Tridiagonal t = tridiagonalize(load_symmetric(a), n);
  // Eigenvalues via a vector-free QL pass on a copy; the original (d, e)
  // stay intact for the inverse-iteration solves.
  std::vector<double> dv = t.d;
  std::vector<double> ev = t.e;
  tridiag_ql(dv, ev, n, nullptr, 0);
  std::sort(dv.begin(), dv.end(), std::greater<double>());
  dv.resize(static_cast<std::size_t>(k));

  std::vector<double> w = tridiag_topk_vectors(t.d, t.e, n, dv, k);
  apply_reflectors(t, w.data(), k);

  EigResult result;
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

std::vector<double> eig_symmetric_values(const Tensor& a) {
  check_square(a);
  const std::int64_t n = a.dim(0);
  if (n <= kEigJacobiFallbackDim) {
    return eig_symmetric_jacobi(a).values;
  }
  Tridiagonal t = tridiagonalize(load_symmetric(a), n);
  tridiag_ql(t.d, t.e, n, nullptr, 0);
  std::sort(t.d.begin(), t.d.end(), std::greater<double>());
  return t.d;
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
