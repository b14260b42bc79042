#include "linalg/gemm_s8.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX2__)
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

// Same BLIS-style geometry as the fp32 engine (linalg/gemm.cpp); the 8-bit
// operands make every panel 4× smaller, so the fp32 blocking is comfortably
// cache-resident here too. kKc stays a multiple of kKq so only the final K
// block ever carries quad padding.
constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 16;
constexpr std::int64_t kKq = 4;     // k-quad: k's reduced per maddubs+madd
constexpr std::int64_t kMc = 120;   // multiple of kMr
constexpr std::int64_t kKc = 256;   // multiple of kKq
constexpr std::int64_t kNc = 1024;  // multiple of kNr

std::int64_t quadup(std::int64_t k) {
  return detail::divup(k, kKq) * kKq;
}

std::int64_t packed_a_rows_s8(std::int64_t m) {
  return detail::divup(m, kMr) * kMr;
}

// C[MR×NR] ⊕= Ap·Bp over `quads` k-quads. Ap stores, per quad, kMr rows ×
// 4 bytes; Bp stores, per quad, kNr columns × 4 bytes (consecutive k's per
// 32-bit lane). Both are zero-padded, so the kernel is branch-free.
//
// `row_init` selects the epilogue: null accumulates into C (load + add, the
// 2nd..last K blocks); non-null overwrites C with row_init[r] + Ap·Bp (the
// first K block). Seeding the first block with −zp·row_sums folds the
// zero-point correction in for free — no C zero-fill pass before the block
// walk and no correction pass after it, which matters because those passes
// are pure int32 memory traffic that low-K serving GEMMs can't amortize.
#if defined(__AVX2__)
void micro_kernel_s8(std::int64_t quads, const std::int8_t* ap,
                     const std::uint8_t* bp, std::int32_t* c,
                     std::int64_t ldc, const std::int32_t* row_init) {
  __m256i acc[kMr][2];
  for (int r = 0; r < kMr; ++r) {
    acc[r][0] = row_init != nullptr ? _mm256_set1_epi32(row_init[r])
                                    : _mm256_setzero_si256();
    acc[r][1] = acc[r][0];
  }
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
  for (std::int64_t q = 0; q < quads; ++q) {
    // Bytes [x(k,j), x(k+1,j), x(k+2,j), x(k+3,j)] per 32-bit lane j:
    // b0 covers columns 0–7, b1 columns 8–15.
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 32));
    bp += kNr * kKq;
    for (int r = 0; r < kMr; ++r) {
      std::int32_t wq;
      std::memcpy(&wq, ap + r * kKq, sizeof(wq));
      const __m256i a = _mm256_set1_epi32(wq);
      // vpdpbusd: unsigned activations × signed weights, the four products
      // of each lane summed exactly into the int32 accumulator — one
      // instruction where the AVX2 tier below needs maddubs + madd + add.
      // The 4-product sum is ≤ 4·127·127, so the accumulation is exact and
      // bit-identical to both other tiers.
      acc[r][0] = _mm256_dpbusd_epi32(acc[r][0], b0, a);
      acc[r][1] = _mm256_dpbusd_epi32(acc[r][1], b1, a);
    }
    ap += kMr * kKq;
  }
#else
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::int64_t q = 0; q < quads; ++q) {
    // Bytes [x(k,j), x(k+1,j), x(k+2,j), x(k+3,j)] per 32-bit lane j:
    // b0 covers columns 0–7, b1 columns 8–15.
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 32));
    bp += kNr * kKq;
    for (int r = 0; r < kMr; ++r) {
      std::int32_t wq;
      std::memcpy(&wq, ap + r * kKq, sizeof(wq));
      const __m256i a = _mm256_set1_epi32(wq);
      // maddubs: unsigned activations × signed weights → int16 pair sums.
      // With activations ≤ 127 the pairs are ≤ 32258 < INT16_MAX, so the
      // saturating add never saturates and the arithmetic is exact.
      const __m256i p0 = _mm256_maddubs_epi16(b0, a);
      const __m256i p1 = _mm256_maddubs_epi16(b1, a);
      // madd ×1 widens the two pair sums of each lane to one int32 per
      // column — no cross-column mixing by construction of the layout.
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(p0, ones));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(p1, ones));
    }
    ap += kMr * kKq;
  }
#endif
  for (int r = 0; r < kMr; ++r) {
    std::int32_t* crow = c + r * ldc;
    __m256i* c0 = reinterpret_cast<__m256i*>(crow);
    __m256i* c1 = reinterpret_cast<__m256i*>(crow + 8);
    if (row_init != nullptr) {
      _mm256_storeu_si256(c0, acc[r][0]);
      _mm256_storeu_si256(c1, acc[r][1]);
    } else {
      _mm256_storeu_si256(c0, _mm256_add_epi32(_mm256_loadu_si256(c0),
                                               acc[r][0]));
      _mm256_storeu_si256(c1, _mm256_add_epi32(_mm256_loadu_si256(c1),
                                               acc[r][1]));
    }
  }
}
#else
void micro_kernel_s8(std::int64_t quads, const std::int8_t* ap,
                     const std::uint8_t* bp, std::int32_t* c,
                     std::int64_t ldc, const std::int32_t* row_init) {
  std::int32_t acc[kMr][kNr];
  for (int r = 0; r < kMr; ++r) {
    for (int j = 0; j < kNr; ++j) {
      acc[r][j] = row_init != nullptr ? row_init[r] : 0;
    }
  }
  for (std::int64_t q = 0; q < quads; ++q) {
    for (int r = 0; r < kMr; ++r) {
      const std::int8_t* aq = ap + r * kKq;
      for (int j = 0; j < kNr; ++j) {
        const std::uint8_t* bq = bp + j * kKq;
        std::int32_t sum = 0;
        for (int t = 0; t < kKq; ++t) {
          sum += static_cast<std::int32_t>(bq[t]) *
                 static_cast<std::int32_t>(aq[t]);
        }
        acc[r][j] += sum;
      }
    }
    ap += kMr * kKq;
    bp += kNr * kKq;
  }
  for (int r = 0; r < kMr; ++r) {
    std::int32_t* crow = c + r * ldc;
    for (int j = 0; j < kNr; ++j) {
      if (row_init != nullptr) {
        crow[j] = acc[r][j];
      } else {
        crow[j] += acc[r][j];
      }
    }
  }
}
#endif

#if defined(__AVX512VNNI__) && defined(__AVX512F__)
constexpr bool kPairTile = true;

// Two adjacent NR slivers at once: C[MR×2NR] ⊕= Ap·[Bp0 | Bp1], where bp1
// is the packed sliver right after bp0. One zmm accumulator per (row,
// sliver) covers the 16 columns of that sliver, so each k-quad costs 2 B
// loads, 6 broadcasts and 12 vpdpbusd. The sums are exact int32, the seed
// and epilogue are micro_kernel_s8's, so every C entry is bitwise the one
// two 6×16 calls would write.
void micro_kernel_s8_pair(std::int64_t quads, const std::int8_t* ap,
                          const std::uint8_t* bp0, const std::uint8_t* bp1,
                          std::int32_t* c, std::int64_t ldc,
                          const std::int32_t* row_init) {
  __m512i acc[kMr][2];
  for (int r = 0; r < kMr; ++r) {
    acc[r][0] = row_init != nullptr ? _mm512_set1_epi32(row_init[r])
                                    : _mm512_setzero_si512();
    acc[r][1] = acc[r][0];
  }
  for (std::int64_t q = 0; q < quads; ++q) {
    const __m512i b0 = _mm512_loadu_si512(bp0 + q * kNr * kKq);
    const __m512i b1 = _mm512_loadu_si512(bp1 + q * kNr * kKq);
    for (int r = 0; r < kMr; ++r) {
      std::int32_t wq;
      std::memcpy(&wq, ap + r * kKq, sizeof(wq));
      const __m512i a = _mm512_set1_epi32(wq);
      acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], b0, a);
      acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], b1, a);
    }
    ap += kMr * kKq;
  }
  for (int r = 0; r < kMr; ++r) {
    std::int32_t* crow = c + r * ldc;
    for (int h = 0; h < 2; ++h) {
      std::int32_t* dst = crow + h * kNr;
      _mm512_storeu_si512(
          dst, row_init != nullptr
                   ? acc[r][h]
                   : _mm512_add_epi32(_mm512_loadu_si512(dst), acc[r][h]));
    }
  }
}
#else
constexpr bool kPairTile = false;
#endif

// Packs B(pc0+0..kc, jc0+0..nc) into NR-column, k-quad-interleaved slivers,
// zero-padded in both directions (padding contributes 0·w = 0 exactly).
// On AVX2 builds a full sliver's full quads transpose 4 rows × 16 columns
// in registers: unpack{lo,hi}_epi8 pairs rows (k, k+1) and (k+2, k+3), and
// unpack{lo,hi}_epi16 of those pairs yields each column's 4-byte quad in
// column order. Ragged slivers and a final quad past kc take the scalar
// loop, which writes the same bytes.
void pack_b_u8(std::int64_t kc, std::int64_t nc, const std::uint8_t* b,
               std::int64_t ldb, std::uint8_t* dst) {
  const std::int64_t pkc = quadup(kc);
  for (std::int64_t j0 = 0; j0 < nc; j0 += kNr) {
    const std::int64_t cols = std::min<std::int64_t>(kNr, nc - j0);
    std::int64_t kq = 0;
#if defined(__AVX2__)
    if (cols == kNr) {
      for (; kq + kKq <= kc; kq += kKq) {
        const std::uint8_t* src = b + kq * ldb + j0;
        auto row = [&](std::int64_t t) {
          return _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(src + t * ldb));
        };
        const __m128i r0 = row(0);
        const __m128i r1 = row(1);
        const __m128i r2 = row(2);
        const __m128i r3 = row(3);
        const __m128i lo01 = _mm_unpacklo_epi8(r0, r1);  // columns 0–7
        const __m128i hi01 = _mm_unpackhi_epi8(r0, r1);  // columns 8–15
        const __m128i lo23 = _mm_unpacklo_epi8(r2, r3);
        const __m128i hi23 = _mm_unpackhi_epi8(r2, r3);
        auto* out = reinterpret_cast<__m128i*>(dst);
        _mm_storeu_si128(out + 0, _mm_unpacklo_epi16(lo01, lo23));
        _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(lo01, lo23));
        _mm_storeu_si128(out + 2, _mm_unpacklo_epi16(hi01, hi23));
        _mm_storeu_si128(out + 3, _mm_unpackhi_epi16(hi01, hi23));
        dst += kNr * kKq;
      }
    }
#endif
    for (; kq < pkc; kq += kKq) {
      for (std::int64_t j = 0; j < kNr; ++j) {
        if (j < cols) {
          const std::uint8_t* col = b + kq * ldb + j0 + j;
          for (std::int64_t t = 0; t < kKq; ++t) {
            *dst++ = kq + t < kc ? col[t * ldb] : 0;
          }
        } else {
          for (std::int64_t t = 0; t < kKq; ++t) {
            *dst++ = 0;
          }
        }
      }
    }
  }
}

// Packs A(ic0+0..mc, pc0+0..kc) into MR-row, k-quad-interleaved slivers.
void pack_a_s8(std::int64_t mc, std::int64_t kc, const std::int8_t* a,
               std::int64_t rs, std::int64_t cs, std::int8_t* dst) {
  const std::int64_t pkc = quadup(kc);
  for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
    const std::int64_t rows = std::min<std::int64_t>(kMr, mc - i0);
    for (std::int64_t kq = 0; kq < pkc; kq += kKq) {
      for (std::int64_t r = 0; r < kMr; ++r) {
        if (r < rows) {
          const std::int8_t* row = a + (i0 + r) * rs + kq * cs;
          for (std::int64_t t = 0; t < kKq; ++t) {
            *dst++ = kq + t < kc ? row[t * cs] : 0;
          }
        } else {
          for (std::int64_t t = 0; t < kKq; ++t) {
            *dst++ = 0;
          }
        }
      }
    }
  }
}

}  // namespace

PackedGemmAS8 pack_gemm_a_s8(std::int64_t m, std::int64_t k,
                             const std::int8_t* a, std::int64_t a_rs,
                             std::int64_t a_cs) {
  TDC_CHECK(m >= 1 && k >= 1);
  PackedGemmAS8 packed;
  packed.m_ = m;
  packed.k_ = k;
  const std::int64_t pm = packed_a_rows_s8(m);
  const std::int64_t pk = quadup(k);
  // Weight pre-packing happens at plan-compile time, not while serving.
  packed.panels_.resize(
      static_cast<std::size_t>(pm * pk));
  packed.row_sums_.resize(
      static_cast<std::size_t>(m));
  // Same (pc, ic) block walk as the driver: full K blocks are kKq-aligned,
  // so the panel for K-block pc and row panel ic starts at pm·pc + ic·pkc.
  for (std::int64_t pc = 0; pc < k; pc += kKc) {
    const std::int64_t kc = std::min<std::int64_t>(kKc, k - pc);
    const std::int64_t pkc = quadup(kc);
    for (std::int64_t ic = 0; ic < m; ic += kMc) {
      const std::int64_t mc = std::min<std::int64_t>(kMc, m - ic);
      pack_a_s8(mc, kc, a + ic * a_rs + pc * a_cs, a_rs, a_cs,
                packed.panels_.data() + pm * pc + ic * pkc);
    }
  }
  for (std::int64_t i = 0; i < m; ++i) {
    std::int32_t sum = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      sum += static_cast<std::int32_t>(a[i * a_rs + kk * a_cs]);
    }
    packed.row_sums_[static_cast<std::size_t>(i)] = sum;
  }
  return packed;
}

namespace {

// Operands of one s8 GEMM call, shared by every chunk of its region. The
// packed A sliver holding rows [i, i + MR) of K block pc starts at
// a + pm·pc + i·pkc (pack_gemm_a_s8's layout), whichever MC panel holds it.
struct GemmS8Args {
  std::int64_t k;
  std::int64_t pm;
  const std::int8_t* a;
  const std::int32_t* row_sums;
  const std::uint8_t* b;
  std::int64_t ldb;
  std::int32_t b_zero_point;
  std::int32_t* c;
  std::int64_t ldc;
};

// Rows [i0, i1) of one KC×NC block of C against its packed B band: K block
// pc (`pkc` padded depth) × columns [jc, jc + nc). The first K block
// overwrites C seeded with the zero-point correction (−zp·Σ w_q per row,
// exact in int32: |zp·Σw| ≤ 127·127·k); later blocks accumulate. C
// therefore needs no zero-fill pass before the walk and no correction pass
// after it.
//
// Kept out of line: inlined beside pack_b_u8 in gemm_s8_chunk, this walk
// ran 4–10% slower at one thread on low-K GEMMs with N past one NC band
// (M = 32–64, K = 32–288, N = 3136: the int8 layer-1 Tucker stages).
[[gnu::noinline]] TDC_RUN_PATH void gemm_s8_block(
    const GemmS8Args& g, const std::uint8_t* bpack, std::int64_t i0,
    std::int64_t i1, std::int64_t jc, std::int64_t nc, std::int64_t pc,
    std::int64_t pkc) {
  const std::int64_t quads = pkc / kKq;
  const bool first_block = pc == 0;
  for (std::int64_t ic = i0; ic < i1; ic += kMc) {
    const std::int64_t mc = std::min<std::int64_t>(kMc, i1 - ic);
    const std::int8_t* apanel = g.a + g.pm * pc + ic * pkc;
    // One MR×NR tile of C through the 6×16 kernel: straight into C when
    // full, through a scratch tile when ragged, copying (first block) or
    // accumulating (later blocks) only the live entries.
    const auto sliver_tile = [&](std::int64_t jr, std::int64_t ir,
                                 std::int64_t mr, const std::int8_t* ap,
                                 const std::int32_t* row_init) {
      const std::int64_t nr = std::min<std::int64_t>(kNr, nc - jr);
      const std::uint8_t* bp = bpack + (jr / kNr) * pkc * kNr;
      std::int32_t* ctile = g.c + (ic + ir) * g.ldc + jc + jr;
      if (mr == kMr && nr == kNr) {
        micro_kernel_s8(quads, ap, bp, ctile, g.ldc, row_init);
        return;
      }
      std::int32_t tmp[kMr * kNr] = {};
      micro_kernel_s8(quads, ap, bp, tmp, kNr, row_init);
      for (std::int64_t i = 0; i < mr; ++i) {
        for (std::int64_t j = 0; j < nr; ++j) {
          if (first_block) {
            ctile[i * g.ldc + j] = tmp[i * kNr + j];
          } else {
            ctile[i * g.ldc + j] += tmp[i * kNr + j];
          }
        }
      }
    };
    for (std::int64_t jr = 0; jr < nc; jr += kNr) {
      const bool pair = kPairTile && jr + 2 * kNr <= nc;
      for (std::int64_t ir = 0; ir < mc; ir += kMr) {
        const std::int64_t mr = std::min<std::int64_t>(kMr, mc - ir);
        std::int32_t init[kMr] = {};
        if (first_block && g.b_zero_point != 0) {
          for (std::int64_t r = 0; r < mr; ++r) {
            init[r] = -g.b_zero_point * g.row_sums[ic + ir + r];
          }
        }
        const std::int32_t* row_init = first_block ? init : nullptr;
        const std::int8_t* ap = apanel + (ir / kMr) * pkc * kMr;
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
        // Two full slivers side by side take the 6×32 tile; the odd last
        // sliver and ragged rows take the 6×16 path below.
        if (pair && mr == kMr) {
          const std::uint8_t* bp = bpack + (jr / kNr) * pkc * kNr;
          micro_kernel_s8_pair(quads, ap, bp, bp + pkc * kNr,
                               g.c + (ic + ir) * g.ldc + jc + jr, g.ldc,
                               row_init);
          continue;
        }
#endif
        for (std::int64_t js = jr; js < jr + (pair ? 2 : 1) * kNr;
             js += kNr) {
          sliver_tile(js, ir, mr, ap, row_init);
        }
      }
      if (pair) {
        jr += kNr;
      }
    }
  }
}

// One chunk of an s8 GEMM region: C rows [i0, i1) × columns [j0, j1), edges
// on the MR×NR tile grid. Walks the (jc, pc, ic) blocks the whole-matrix
// walk would, restricted to its rectangle, packing the B slivers it consumes
// into this thread's buffer. The sums are exact int32, so every C entry is
// bitwise the same whichever chunk owns it; one chunk over all of C is the
// whole-matrix walk.
TDC_RUN_PATH void gemm_s8_chunk(const GemmS8Args& g, std::int64_t i0,
                                std::int64_t i1, std::int64_t j0,
                                std::int64_t j1) {
  // Thread-local pack buffer (linalg/pack_buffer.h): capacity only ever
  // grows, so after first-touch warm-up the steady state performs no heap
  // allocation — enforced by the armed band guard below for everything
  // inside the block walk.
  thread_local detail::PackBuffer<std::uint8_t> bbuf;
  std::uint8_t* const bpack = bbuf.get(
      kKc * std::min<std::int64_t>(detail::divup(j1 - j0, kNr) * kNr, kNc));
  DenyAllocGuard band_guard("gemm_s8 band");
  for (std::int64_t jc = j0; jc < j1; jc += kNc) {
    const std::int64_t nc = std::min<std::int64_t>(kNc, j1 - jc);
    for (std::int64_t pc = 0; pc < g.k; pc += kKc) {
      // Cooperative cancellation between KC×NC bands, like the fp32 engine:
      // this chunk's C holds only whole completed band updates when this
      // throws, and the next run rewrites C from scratch (the first K block
      // of every column band overwrites instead of accumulating).
      deadline_poll("gemm_s8 band");
      const std::int64_t kc = std::min<std::int64_t>(kKc, g.k - pc);
      pack_b_u8(kc, nc, g.b + pc * g.ldb + jc, g.ldb, bpack);
      gemm_s8_block(g, bpack, i0, i1, jc, nc, pc, quadup(kc));
    }
  }
}

}  // namespace

// One parallel region per call: split_tiles cuts C into at most
// region_width() tile-aligned rectangles, as the fp32 engine does, and each
// chunk runs gemm_s8_chunk on its own, so batch-1 GEMMs with few rows still
// use the whole intra-op width. Width 1 runs the one chunk inline.
TDC_RUN_PATH void gemm_prepacked_s8u8(const PackedGemmAS8& a, std::int64_t n,
                                      const std::uint8_t* b, std::int64_t ldb,
                                      std::int32_t b_zero_point,
                                      std::int32_t* c, std::int64_t ldc) {
  TDC_CHECK_MSG(!a.empty(), "gemm_prepacked_s8u8 on an empty PackedGemmAS8");
  TDC_CHECK(n >= 1 && ldb >= n && ldc >= n);
  const std::int64_t m = a.m_;
  const GemmS8Args g{.k = a.k_,
                     .pm = packed_a_rows_s8(m),
                     .a = a.panels_.data(),
                     .row_sums = a.row_sums_.data(),
                     .b = b,
                     .ldb = ldb,
                     .b_zero_point = b_zero_point,
                     .c = c,
                     .ldc = ldc};
  const std::int64_t row_slivers = detail::divup(m, kMr);
  const std::int64_t col_slivers = detail::divup(n, kNr);
  const detail::TileSplit split =
      detail::split_tiles(m, n, g.k, kMr, kNr, region_width());
  parallel_for(0, split.rows * split.cols, 1,
               [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t chunk = c0; chunk < c1; ++chunk) {
      const std::int64_t r = chunk / split.cols;
      const std::int64_t q = chunk % split.cols;
      gemm_s8_chunk(g, r * row_slivers / split.rows * kMr,
                    std::min(m, (r + 1) * row_slivers / split.rows * kMr),
                    q * col_slivers / split.cols * kNr,
                    std::min(n, (q + 1) * col_slivers / split.cols * kNr));
    }
  });
}

namespace {

// Shared requantization body: q = RNE(acc·mult) + zp, clamped to
// [q_lo, q_hi]. The AVX2 and scalar paths compute the identical float
// product and both round under round-to-nearest-even (default MXCSR /
// fenv), so they agree bit-for-bit.
//
// The product is clamped to ±kSat in float before the int32 conversion,
// which is otherwise undefined (scalar) or INT_MIN (cvtps_epi32) past the
// int32 range. A zero point is a value of the target domain, so |zp| ≤ 128
// and every clamped product still saturates to the same end; in-range
// products pass unchanged. As in quantize_u8, the product is the first
// operand of each compare on both paths.
constexpr float kRequantSat = 256.0f;

template <typename Out>
void requantize_rows(const std::int32_t* acc, std::int64_t m, std::int64_t n,
                     std::int64_t ldc, const float* multiplier,
                     std::int32_t zero_point, std::int32_t q_lo,
                     std::int32_t q_hi, Out* out, std::int64_t ldo) {
  parallel_for(0, m, 8, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      const std::int32_t* arow = acc + i * ldc;
      Out* orow = out + i * ldo;
      const float mult = multiplier[i];
      std::int64_t j = 0;
#if defined(__AVX2__)
      const __m256 vm = _mm256_set1_ps(mult);
      const __m256i vzp = _mm256_set1_epi32(zero_point);
      const __m256i vlo = _mm256_set1_epi32(q_lo);
      const __m256i vhi = _mm256_set1_epi32(q_hi);
      const __m256 vsat_lo = _mm256_set1_ps(-kRequantSat);
      const __m256 vsat_hi = _mm256_set1_ps(kRequantSat);
      for (; j + 8 <= n; j += 8) {
        const __m256 prod = _mm256_mul_ps(
            _mm256_cvtepi32_ps(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(arow + j))),
            vm);
        const __m256 sat = _mm256_min_ps(_mm256_max_ps(prod, vsat_lo), vsat_hi);
        __m256i q = _mm256_add_epi32(_mm256_cvtps_epi32(sat), vzp);
        q = _mm256_min_epi32(_mm256_max_epi32(q, vlo), vhi);
        // q already lies in [q_lo, q_hi] ⊆ [−128, 127], so both signed
        // packs are exact and the low 8 bytes are the 8 outputs in order,
        // for int8 and (7-bit) uint8 alike.
        const __m128i q16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                            _mm256_extracti128_si256(q, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i*>(orow + j),
                         _mm_packs_epi16(q16, q16));
      }
#endif
      for (; j < n; ++j) {
        float prod = static_cast<float>(arow[j]) * mult;
        prod = prod > -kRequantSat ? prod : -kRequantSat;
        prod = prod < kRequantSat ? prod : kRequantSat;
        const std::int32_t q =
            static_cast<std::int32_t>(std::nearbyintf(prod)) + zero_point;
        orow[j] = static_cast<Out>(std::clamp(q, q_lo, q_hi));
      }
    }
  });
}

}  // namespace

void requantize_s8(const std::int32_t* acc, std::int64_t m, std::int64_t n,
                   std::int64_t ldc, const float* multiplier,
                   std::int32_t zero_point, std::int8_t* out,
                   std::int64_t ldo) {
  requantize_rows(acc, m, n, ldc, multiplier, zero_point, -128, 127, out,
                  ldo);
}

void requantize_u8(const std::int32_t* acc, std::int64_t m, std::int64_t n,
                   std::int64_t ldc, const float* multiplier,
                   std::int32_t zero_point, std::uint8_t* out,
                   std::int64_t ldo) {
  requantize_rows(acc, m, n, ldc, multiplier, zero_point, 0, 127, out, ldo);
}

void dequantize_f32(const std::int32_t* acc, std::int64_t m, std::int64_t n,
                    std::int64_t ldc, const float* multiplier, float* out,
                    std::int64_t ldo) {
  parallel_for(0, m, 8, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      const std::int32_t* arow = acc + i * ldc;
      float* orow = out + i * ldo;
      const float mult = multiplier[i];
      for (std::int64_t j = 0; j < n; ++j) {
        orow[j] = static_cast<float>(arow[j]) * mult;
      }
    }
  });
}

}  // namespace tdc
