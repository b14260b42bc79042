// Packed, register-tiled single-precision GEMM.
//
// This is the workhorse behind the im2col convolution path (the stand-in for
// cuDNN IMPLICIT_GEMM), the pointwise 1×1 convolutions of the Tucker
// pipeline, and the fully-connected layers in the training substrate.
//
// The implementation packs A into MR-row and B into NR-column panels and
// drives a register-tiled micro-kernel. The transposed variants fold the
// transpose into the packing strides — no operand copies are materialized.
// The build's ISA picks one of three kernel tiers:
//
//  * AVX-512 (__AVX512F__): two adjacent full 16-column slivers of a full
//    6-row sliver run as one 6×32 tile, 12 zmm accumulators with 2 B loads
//    and 6 broadcasts per k; the odd last sliver and ragged rows take the
//    6×16 ymm kernel below.
//  * AVX2 + FMA: a 6×16 tile, 12 ymm accumulators.
//  * Generic: a scalar 6×16 tile the compiler vectorizes as it can.
//
// In both FMA tiers every C entry gets one FMA chain from zero over its k's
// in order, then C = acc·alpha + C as one fused multiply-add. The zmm tile
// gives each lane exactly the chain and epilogue the ymm tile gives it, so
// pairing slivers never moves a bit, and an AVX-512 build and an AVX2 build
// agree bitwise. The generic tier need not match them: without FMA its
// products round separately. Within any build, results are bitwise
// reproducible at every split and thread count (below).
//
// Threading: each call opens one region of the shared runtime
// (common/parallel.h) with at most region_width() chunks, or runs inline
// when called inside another region (a fused Tucker band, a batch slot).
// Each chunk owns a rectangle of C whose edges lie on the 6×16 tile grid
// (pairs of its slivers take the 6×32 tile): the grid is the one
// whose largest chunk holds the fewest tiles, so C splits by columns when N
// has at least one 16-column sliver per thread and by 6-row slivers
// otherwise (both when neither alone fills the width). Calls with fewer
// than ~64K multiply-adds per chunk split less. A chunk scales its
// rectangle by beta, packs the B slivers it reads into its own thread-local
// buffer and walks the K blocks in the serial order. Every C tile therefore
// gets the same micro-kernel calls, on the same packed bytes, in the same
// K order at any thread count or intra-op width: results are bitwise
// independent of both.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace tdc {

/// C[M,N] = alpha * A[M,K] * B[K,N] + beta * C[M,N]; row-major spans.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          std::span<const float> a, std::span<const float> b,
          std::span<float> c, float alpha = 1.0f, float beta = 0.0f);

/// C[M,N] = alpha * A^T[K,M] * B[K,N] + beta * C; A is stored [K, M].
void gemm_at(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float alpha = 1.0f, float beta = 0.0f);

/// C[M,N] = alpha * A[M,K] * B^T[N,K] + beta * C; B is stored [N, K].
void gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float alpha = 1.0f, float beta = 0.0f);

/// Fully general strided entry point of the packed kernel:
///   C[i·ldc + j] = alpha · Σ_k A(i,k)·B(k,j) + beta · C[i·ldc + j]
/// with A(i,k) = a[i·a_rs + k·a_cs] and B(k,j) = b[k·b_rs + j·b_cs].
/// Transposes and in-place row/column views (e.g. writing a row band of a
/// larger output, or reading a row slab of a CHW image) are all stride
/// choices — no operand is ever copied. The caller guarantees the strides
/// stay in bounds.
void gemm_strided(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t a_rs, std::int64_t a_cs,
                  const float* b, std::int64_t b_rs, std::int64_t b_cs,
                  float* c, std::int64_t ldc, float alpha = 1.0f,
                  float beta = 0.0f);

/// The lower triangle of the square gemm_strided product (M = N = m):
/// the same packed walk, minus every MR×NR tile that lies wholly above the
/// diagonal. Entries on and below the diagonal are bitwise those
/// gemm_strided writes; entries above it are unspecified (the tiles that
/// straddle the diagonal fill some, beta scales the rest). A Gram matrix
/// A·A^T for a symmetric consumer that reads one triangle costs about half
/// the full product this way. The region splits C into row bands of equal
/// triangle area; like every split, it never changes a result bit.
void gemm_strided_lower(std::int64_t m, std::int64_t k, const float* a,
                        std::int64_t a_rs, std::int64_t a_cs, const float* b,
                        std::int64_t b_rs, std::int64_t b_cs, float* c,
                        std::int64_t ldc, float alpha = 1.0f,
                        float beta = 0.0f);

/// A-operand panels packed once into the micro-kernel's sliver format.
///
/// Packing the left operand is the per-call cost the plan/execute API hoists
/// out of the serving loop: a convolution plan packs its weight matrix at
/// compile time and every subsequent gemm_prepacked call skips the pack
/// entirely. The layout mirrors what the driver produces internally — for
/// each KC-deep slab of the K dimension, MR-row slivers covering all M rows
/// (zero-padded at the ragged edge) — so the micro-kernel consumes identical
/// bytes and the result is bit-identical to the pack-on-the-fly path.
class PackedGemmA {
 public:
  PackedGemmA() = default;
  std::int64_t rows() const { return m_; }
  std::int64_t depth() const { return k_; }
  bool empty() const { return panels_.empty(); }

 private:
  friend PackedGemmA pack_gemm_a(std::int64_t m, std::int64_t k,
                                 const float* a, std::int64_t a_rs,
                                 std::int64_t a_cs);
  friend void gemm_prepacked(const PackedGemmA& a, std::int64_t n,
                             const float* b, std::int64_t b_rs,
                             std::int64_t b_cs, float* c, std::int64_t ldc,
                             float alpha, float beta);
  std::int64_t m_ = 0;
  std::int64_t k_ = 0;
  std::vector<float> panels_;
};

/// Packs A (A(i,kk) = a[i·a_rs + kk·a_cs], so transposes are stride swaps)
/// for reuse across many gemm_prepacked calls.
PackedGemmA pack_gemm_a(std::int64_t m, std::int64_t k, const float* a,
                        std::int64_t a_rs, std::int64_t a_cs);

/// C[i·ldc + j] = alpha · Σ_k A(i,k)·B(k,j) + beta · C[i·ldc + j] with a
/// prepacked A; bit-identical to gemm_strided on the same operands.
void gemm_prepacked(const PackedGemmA& a, std::int64_t n, const float* b,
                    std::int64_t b_rs, std::int64_t b_cs, float* c,
                    std::int64_t ldc, float alpha = 1.0f, float beta = 0.0f);

/// Tensor convenience wrapper: returns A·B for rank-2 tensors.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Returns A^T for a rank-2 tensor.
Tensor transpose2d(const Tensor& a);

}  // namespace tdc
