#include "linalg/gemm.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/alloc_guard.h"
#include "common/annotations.h"
#include "common/check.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "linalg/pack_buffer.h"
#include "linalg/tile_split.h"

namespace tdc {

namespace {

// BLIS-style packed micro-kernel geometry: MR×NR register tile, MC×KC packed
// A panel (L2-resident), KC×NC packed B panel (L3-resident).
constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 16;
constexpr std::int64_t kMc = 120;   // multiple of kMr
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kNc = 1024;  // multiple of kNr

// C[MR×NR] += alpha · Ap·Bp where Ap is a packed MR×kc sliver (column-major
// slices of MR) and Bp a packed kc×NR sliver (row slices of NR).
#if defined(__AVX2__) && defined(__FMA__)
void micro_kernel(std::int64_t kc, const float* ap, const float* bp,
                  float alpha, float* c, std::int64_t ldc) {
  __m256 acc[kMr][2];
  for (int r = 0; r < kMr; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    bp += kNr;
    for (int r = 0; r < kMr; ++r) {
      const __m256 a = _mm256_broadcast_ss(ap + r);
      acc[r][0] = _mm256_fmadd_ps(a, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(a, b1, acc[r][1]);
    }
    ap += kMr;
  }
  const __m256 va = _mm256_set1_ps(alpha);
  for (int r = 0; r < kMr; ++r) {
    float* crow = c + r * ldc;
    _mm256_storeu_ps(crow,
                     _mm256_fmadd_ps(acc[r][0], va, _mm256_loadu_ps(crow)));
    _mm256_storeu_ps(
        crow + 8, _mm256_fmadd_ps(acc[r][1], va, _mm256_loadu_ps(crow + 8)));
  }
}
#else
void micro_kernel(std::int64_t kc, const float* ap, const float* bp,
                  float alpha, float* c, std::int64_t ldc) {
  float acc[kMr][kNr] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    for (int r = 0; r < kMr; ++r) {
      const float a = ap[r];
      for (int j = 0; j < kNr; ++j) {
        acc[r][j] += a * bp[j];
      }
    }
    ap += kMr;
    bp += kNr;
  }
  for (int r = 0; r < kMr; ++r) {
    float* crow = c + r * ldc;
    for (int j = 0; j < kNr; ++j) {
      crow[j] += alpha * acc[r][j];
    }
  }
}
#endif

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)
// Two adjacent NR slivers at once: C[MR×2NR] += alpha · Ap·[Bp0 | Bp1], where
// bp1 is the packed sliver right after bp0. One zmm accumulator per (row,
// sliver) holds exactly the 16 lanes the 6×16 kernel's two ymm accumulators
// hold, and every lane takes the same FMA chain from zero in k order and the
// same fmadd(acc, alpha, C) epilogue, so each C entry is bitwise the one two
// micro_kernel calls would write.
void micro_kernel_pair(std::int64_t kc, const float* ap, const float* bp0,
                       const float* bp1, float alpha, float* c,
                       std::int64_t ldc) {
  __m512 acc[kMr][2];
  for (int r = 0; r < kMr; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m512 b0 = _mm512_loadu_ps(bp0 + kk * kNr);
    const __m512 b1 = _mm512_loadu_ps(bp1 + kk * kNr);
    for (int r = 0; r < kMr; ++r) {
      const __m512 a = _mm512_set1_ps(ap[r]);
      acc[r][0] = _mm512_fmadd_ps(a, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(a, b1, acc[r][1]);
    }
    ap += kMr;
  }
  const __m512 va = _mm512_set1_ps(alpha);
  for (int r = 0; r < kMr; ++r) {
    float* crow = c + r * ldc;
    _mm512_storeu_ps(crow,
                     _mm512_fmadd_ps(acc[r][0], va, _mm512_loadu_ps(crow)));
    _mm512_storeu_ps(crow + kNr, _mm512_fmadd_ps(acc[r][1], va,
                                                 _mm512_loadu_ps(crow + kNr)));
  }
}
#endif

// Packs A(ic0+0..mc, pc0+0..kc) into MR-row slivers, zero-padding the ragged
// final sliver. Transposition is folded into the (rs, cs) strides.
void pack_a(std::int64_t mc, std::int64_t kc, const float* a,
            std::int64_t rs, std::int64_t cs, float* dst) {
  for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
    const std::int64_t rows = std::min<std::int64_t>(kMr, mc - i0);
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* col = a + i0 * rs + kk * cs;
      std::int64_t r = 0;
      for (; r < rows; ++r) {
        *dst++ = col[r * rs];
      }
      for (; r < kMr; ++r) {
        *dst++ = 0.0f;
      }
    }
  }
}

// Packs B(pc0+0..kc, jc0+0..nc) into NR-column slivers, zero-padded.
void pack_b(std::int64_t kc, std::int64_t nc, const float* b,
            std::int64_t rs, std::int64_t cs, float* dst) {
  for (std::int64_t j0 = 0; j0 < nc; j0 += kNr) {
    const std::int64_t cols = std::min<std::int64_t>(kNr, nc - j0);
    if (cols == kNr && cs == 1) {
      // Unit-stride full sliver: each k-row is one contiguous 16-float run.
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        std::copy_n(b + kk * rs + j0, kNr, dst);
        dst += kNr;
      }
      continue;
    }
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* row = b + kk * rs + j0 * cs;
      std::int64_t j = 0;
      for (; j < cols; ++j) {
        *dst++ = row[j * cs];
      }
      for (; j < kNr; ++j) {
        *dst++ = 0.0f;
      }
    }
  }
}

// C[rows×cols] *= beta over one rectangle of C (beta = 0 overwrites, so
// stale NaNs never leak into the result).
void scale_c(std::int64_t rows, std::int64_t cols, float* c, std::int64_t ldc,
             float beta) {
  if (beta == 1.0f) {
    return;
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(row, row + cols, 0.0f);
    } else {
      for (std::int64_t j = 0; j < cols; ++j) {
        row[j] *= beta;
      }
    }
  }
}

// Padded row count of the packed-A format: every MR sliver is zero-filled to
// MR rows, and MC panel boundaries are MR-aligned, so the total is one
// round-up regardless of how panels split.
std::int64_t packed_a_rows(std::int64_t m) {
  return detail::divup(m, kMr) * kMr;
}

// Operands of one GEMM call, shared by every chunk of its region. A(i,kk) =
// a[i·a_rs + kk·a_cs], B(kk,j) = b[kk·b_rs + j·b_cs]; when `prepacked_a` is
// non-null it holds the pack_a output for every (pc, ic) block (the
// PackedGemmA layout, pm padded rows) and A is never packed here.
struct GemmArgs {
  std::int64_t k;
  const float* a;
  std::int64_t a_rs, a_cs;
  const float* b;
  std::int64_t b_rs, b_cs;
  float* c;
  std::int64_t ldc;
  float alpha, beta;
  const float* prepacked_a;
  std::int64_t pm;
  bool lower = false;  // square C; only tiles touching its lower triangle
};

// One chunk of a GEMM region: C rows [i0, i1) × columns [j0, j1), edges on
// the MR×NR tile grid. Scales its rectangle by beta, then walks the same
// (jc, pc, ic) blocks the whole-matrix walk would, restricted to its
// rectangle, packing the B slivers it consumes into this thread's buffer.
// Every C tile therefore receives the same micro-kernel calls, over the same
// packed bytes and in the same pc order, whichever chunk owns it. With
// `g.lower` the walk skips every tile whose columns all lie above its rows
// (and never packs the B slivers only those tiles read); the tiles it keeps
// get exactly the calls above.
TDC_RUN_PATH void gemm_chunk(const GemmArgs& g, std::int64_t i0,
                             std::int64_t i1, std::int64_t j0,
                             std::int64_t j1) {
  scale_c(i1 - i0, j1 - j0, g.c + i0 * g.ldc + j0, g.ldc, g.beta);
  if (g.lower) {
    // Through the NR sliver holding column i1 − 1: cutting inside it would
    // turn its tiles ragged and change their rounding.
    j1 = std::min(j1, detail::divup(i1, kNr) * kNr);
  }
  if (g.k == 0 || g.alpha == 0.0f || i1 <= i0 || j1 <= j0) {
    return;
  }
  // Thread-local pack buffers (linalg/pack_buffer.h): grow-only, so a warm
  // run allocates nothing.
  thread_local detail::PackBuffer<float> bbuf;
  thread_local detail::PackBuffer<float> abuf;
  float* const bpack = bbuf.get(
      kKc * std::min<std::int64_t>(detail::divup(j1 - j0, kNr) * kNr, kNc));
  float* const apack =
      g.prepacked_a != nullptr ? nullptr : abuf.get(kMc * kKc);
  DenyAllocGuard band_guard("gemm band");
  for (std::int64_t jc = j0; jc < j1; jc += kNc) {
    const std::int64_t nc = std::min<std::int64_t>(kNc, j1 - jc);
    for (std::int64_t pc = 0; pc < g.k; pc += kKc) {
      // Cooperative cancellation between KC×NC bands: this chunk's tiles
      // hold only whole completed band updates when it throws, and the
      // caller's next run rewrites C from scratch (beta pass), so no torn
      // state survives.
      deadline_poll("gemm band");
      const std::int64_t kc = std::min<std::int64_t>(kKc, g.k - pc);
      pack_b(kc, nc, g.b + pc * g.b_rs + jc * g.b_cs, g.b_rs, g.b_cs, bpack);
      for (std::int64_t ic = i0; ic < i1; ic += kMc) {
        const std::int64_t mc = std::min<std::int64_t>(kMc, i1 - ic);
        // Columns this row panel needs: all of the band, or with `lower`
        // only those left of its last row.
        const std::int64_t nc_live =
            g.lower ? std::min(nc, ic + mc - jc) : nc;
        if (nc_live <= 0) {
          continue;
        }
        const float* apanel;
        if (g.prepacked_a != nullptr) {
          apanel = g.prepacked_a + g.pm * pc + ic * kc;
        } else {
          pack_a(mc, kc, g.a + ic * g.a_rs + pc * g.a_cs, g.a_rs, g.a_cs,
                 apack);
          apanel = apack;
        }
        // One MR×NR tile of C: the micro-kernel straight into C when full,
        // through a zeroed scratch tile when ragged (accumulating only the
        // live entries).
        const auto sliver_tile = [&](std::int64_t jr, std::int64_t ir) {
          const std::int64_t nr = std::min<std::int64_t>(kNr, nc - jr);
          const std::int64_t mr = std::min<std::int64_t>(kMr, mc - ir);
          const float* ap = apanel + (ir / kMr) * kc * kMr;
          const float* bp = bpack + (jr / kNr) * kc * kNr;
          float* ctile = g.c + (ic + ir) * g.ldc + jc + jr;
          if (mr == kMr && nr == kNr) {
            micro_kernel(kc, ap, bp, g.alpha, ctile, g.ldc);
          } else {
            float tmp[kMr * kNr] = {};
            micro_kernel(kc, ap, bp, g.alpha, tmp, kNr);
            for (std::int64_t i = 0; i < mr; ++i) {
              for (std::int64_t j = 0; j < nr; ++j) {
                ctile[i * g.ldc + j] += tmp[i * kNr + j];
              }
            }
          }
        };
        // With `lower`, a sliver starts at the row sliver holding column
        // jc + jr's diagonal entry: the slivers above it lie wholly above
        // the diagonal.
        const auto first_row = [&](std::int64_t jr) {
          return g.lower ? std::max<std::int64_t>(jc + jr - ic, 0) / kMr * kMr
                         : std::int64_t{0};
        };
        for (std::int64_t jr = 0; jr < nc_live; jr += kNr) {
          const std::int64_t ir0 = first_row(jr);
#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)
          // Two full, live slivers side by side: the 6×32 tile covers the
          // full row slivers both keep; the rest take the 6×16 path.
          if (jr + 2 * kNr <= nc && jr + kNr < nc_live) {
            const std::int64_t ir1 = first_row(jr + kNr);
            const float* bp = bpack + (jr / kNr) * kc * kNr;
            for (std::int64_t ir = ir0; ir < mc; ir += kMr) {
              if (ir >= ir1 && ir + kMr <= mc) {
                micro_kernel_pair(kc, apanel + (ir / kMr) * kc * kMr, bp,
                                  bp + kc * kNr, g.alpha,
                                  g.c + (ic + ir) * g.ldc + jc + jr, g.ldc);
                continue;
              }
              sliver_tile(jr, ir);
              if (ir >= ir1) {
                sliver_tile(jr + kNr, ir);
              }
            }
            jr += kNr;
            continue;
          }
#endif
          for (std::int64_t ir = ir0; ir < mc; ir += kMr) {
            sliver_tile(jr, ir);
          }
        }
      }
    }
  }
}

// Shared driver: C[M,N] = alpha·op(A)·op(B) + beta·C with op folded into the
// packing strides and a C row stride for writing into a band of a larger
// matrix. One parallel region per call: split_tiles cuts C into at most
// region_width() tile-aligned rectangles and each chunk runs gemm_chunk on
// its own, so batch-1 GEMMs with few rows still use the whole intra-op
// width.
TDC_RUN_PATH void gemm_packed(std::int64_t m, std::int64_t n,
                              std::int64_t k,
                 const float* a, std::int64_t a_rs, std::int64_t a_cs,
                 const float* b, std::int64_t b_rs, std::int64_t b_cs,
                 float* cp, std::int64_t ldc, float alpha, float beta,
                 const float* prepacked_a = nullptr, bool lower = false) {
  if (m == 0 || n == 0) {
    return;
  }
  const GemmArgs g{.k = k,
                   .a = a, .a_rs = a_rs, .a_cs = a_cs,
                   .b = b, .b_rs = b_rs, .b_cs = b_cs,
                   .c = cp, .ldc = ldc, .alpha = alpha, .beta = beta,
                   .prepacked_a = prepacked_a, .pm = packed_a_rows(m),
                   .lower = lower};
  const std::int64_t row_slivers = detail::divup(m, kMr);
  const std::int64_t col_slivers = detail::divup(n, kNr);
  // A lower-triangle call splits by rows only, with band edges spaced like
  // sqrt(r / rows) so that every band holds an equal share of the triangle.
  const detail::TileSplit split =
      lower ? detail::TileSplit{.rows = std::clamp<std::int64_t>(
                                    m * m * std::max<std::int64_t>(k, 1) / 2 /
                                        detail::kMinChunkMacs,
                                    1,
                                    std::min<std::int64_t>(region_width(),
                                                           row_slivers)),
                                .cols = 1}
            : detail::split_tiles(m, n, k, kMr, kNr, region_width());
  const auto row_edge = [&](std::int64_t r) {
    return lower ? static_cast<std::int64_t>(std::llround(
                       static_cast<double>(row_slivers) *
                       std::sqrt(static_cast<double>(r) /
                                 static_cast<double>(split.rows))))
                 : r * row_slivers / split.rows;
  };
  parallel_for(0, split.rows * split.cols, 1,
               [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t chunk = c0; chunk < c1; ++chunk) {
      const std::int64_t r = chunk / split.cols;
      const std::int64_t q = chunk % split.cols;
      const std::int64_t i0 = row_edge(r) * kMr;
      const std::int64_t i1 = std::min(m, row_edge(r + 1) * kMr);
      const std::int64_t j0 = q * col_slivers / split.cols * kNr;
      const std::int64_t j1 =
          std::min(n, (q + 1) * col_slivers / split.cols * kNr);
      gemm_chunk(g, i0, i1, j0, j1);
    }
  });
}

}  // namespace

void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          std::span<const float> a, std::span<const float> b,
          std::span<float> c, float alpha, float beta) {
  TDC_CHECK(static_cast<std::int64_t>(a.size()) >= m * k);
  TDC_CHECK(static_cast<std::int64_t>(b.size()) >= k * n);
  TDC_CHECK(static_cast<std::int64_t>(c.size()) >= m * n);
  gemm_packed(m, n, k, a.data(), k, 1, b.data(), n, 1, c.data(), n, alpha,
              beta);
}

void gemm_at(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float alpha, float beta) {
  TDC_CHECK(static_cast<std::int64_t>(a.size()) >= k * m);
  TDC_CHECK(static_cast<std::int64_t>(b.size()) >= k * n);
  TDC_CHECK(static_cast<std::int64_t>(c.size()) >= m * n);
  // A is stored [K, M]; reading it as A^T is a stride swap in the packing.
  gemm_packed(m, n, k, a.data(), 1, m, b.data(), n, 1, c.data(), n, alpha,
              beta);
}

void gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float alpha, float beta) {
  TDC_CHECK(static_cast<std::int64_t>(a.size()) >= m * k);
  TDC_CHECK(static_cast<std::int64_t>(b.size()) >= n * k);
  TDC_CHECK(static_cast<std::int64_t>(c.size()) >= m * n);
  // B is stored [N, K]; reading it as B^T is a stride swap in the packing.
  gemm_packed(m, n, k, a.data(), k, 1, b.data(), 1, k, c.data(), n, alpha,
              beta);
}

void gemm_strided(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t a_rs, std::int64_t a_cs,
                  const float* b, std::int64_t b_rs, std::int64_t b_cs,
                  float* c, std::int64_t ldc, float alpha, float beta) {
  gemm_packed(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c, ldc, alpha, beta);
}

void gemm_strided_lower(std::int64_t m, std::int64_t k, const float* a,
                        std::int64_t a_rs, std::int64_t a_cs, const float* b,
                        std::int64_t b_rs, std::int64_t b_cs, float* c,
                        std::int64_t ldc, float alpha, float beta) {
  gemm_packed(m, m, k, a, a_rs, a_cs, b, b_rs, b_cs, c, ldc, alpha, beta,
              /*prepacked_a=*/nullptr, /*lower=*/true);
}

PackedGemmA pack_gemm_a(std::int64_t m, std::int64_t k, const float* a,
                        std::int64_t a_rs, std::int64_t a_cs) {
  TDC_CHECK(m >= 1 && k >= 1);
  PackedGemmA packed;
  packed.m_ = m;
  packed.k_ = k;
  const std::int64_t pm = packed_a_rows(m);
  // Weight pre-packing happens at plan-compile time, not while serving.
  packed.panels_.resize(
      static_cast<std::size_t>(pm * k));
  // Same (pc, ic) block walk as the driver, so offsets line up exactly:
  // the slivers of K-block pc from any MR-aligned row ic on start at
  // pm·pc + ic·kc, which lets a row chunk start mid-panel.
  for (std::int64_t pc = 0; pc < k; pc += kKc) {
    const std::int64_t kc = std::min<std::int64_t>(kKc, k - pc);
    for (std::int64_t ic = 0; ic < m; ic += kMc) {
      const std::int64_t mc = std::min<std::int64_t>(kMc, m - ic);
      pack_a(mc, kc, a + ic * a_rs + pc * a_cs, a_rs, a_cs,
             packed.panels_.data() + pm * pc + ic * kc);
    }
  }
  return packed;
}

void gemm_prepacked(const PackedGemmA& a, std::int64_t n, const float* b,
                    std::int64_t b_rs, std::int64_t b_cs, float* c,
                    std::int64_t ldc, float alpha, float beta) {
  TDC_CHECK_MSG(!a.empty(), "gemm_prepacked on an empty PackedGemmA");
  gemm_packed(a.m_, n, a.k_, /*a=*/nullptr, 0, 0, b, b_rs, b_cs, c, ldc,
              alpha, beta, a.panels_.data());
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  TDC_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "matmul expects matrices");
  TDC_CHECK_MSG(a.dim(1) == b.dim(0), "matmul inner-dim mismatch");
  Tensor c({a.dim(0), b.dim(1)});
  gemm(a.dim(0), b.dim(1), a.dim(1), a.data(), b.data(), c.data());
  return c;
}

Tensor transpose2d(const Tensor& a) {
  TDC_CHECK_MSG(a.rank() == 2, "transpose2d expects a matrix");
  constexpr std::int64_t kTile = 32;
  const std::int64_t rows = a.dim(0);
  const std::int64_t cols = a.dim(1);
  Tensor out({cols, rows});
  const float* src = a.raw();
  float* dst = out.raw();
  for (std::int64_t i0 = 0; i0 < rows; i0 += kTile) {
    const std::int64_t i_max = std::min(i0 + kTile, rows);
    for (std::int64_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::int64_t j_max = std::min(j0 + kTile, cols);
      for (std::int64_t i = i0; i < i_max; ++i) {
        for (std::int64_t j = j0; j < j_max; ++j) {
          dst[j * rows + i] = src[i * cols + j];
        }
      }
    }
  }
  return out;
}

}  // namespace tdc
