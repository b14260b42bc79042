// Packed, register-tiled int8 GEMM — the quantized serving kernel.
//
// The fp32 engine (linalg/gemm.h) drives a register-tiled FMA micro-kernel;
// this is its 8-bit sibling for the quantized serving path: signed-int8
// weights against unsigned-int8 activations, accumulated exactly in int32.
// The build's ISA picks one of three kernel tiers:
//
//  * AVX-512 VNNI (__AVX512VNNI__): two adjacent full 16-column slivers of
//    a full 6-row sliver run as one 6×32 tile, 12 zmm accumulators with 2 B
//    loads, 6 broadcasts and 12 `_mm512_dpbusd_epi32` per k-quad; the odd
//    last sliver and ragged rows take a 6×16 ymm `_mm256_dpbusd_epi32`
//    kernel (with AVX512VL).
//  * AVX2: a 6×16 tile, `_mm256_maddubs_epi16` + `_mm256_madd_epi16`.
//  * Generic: a scalar 6×16 tile.
//
// Every tier computes the same exact integer sums, so the tiers are
// bit-identical to each other, not just within a build.
//
// Quantization contract (what makes the arithmetic *exact*):
//
//   * A holds weights as signed int8 in [-127, 127] (symmetric, per-row
//     scales chosen by the caller).
//   * B holds activations as unsigned int8 in [0, 127] — a deliberate
//     7-bit activation domain. maddubs saturates its int16 pair sums, and
//     127·127·2 = 32258 < 32767, so with 7-bit activations the pair sums
//     can never saturate: every accumulation is exact integer arithmetic,
//     the scalar fallback is bit-identical to the AVX2 kernel, and results
//     are bit-identical across thread counts (integer addition reorders
//     freely).
//
// The packed layout is k-quad interleaved: B panels store, per 16-column
// sliver, 4 consecutive k's per column per 32-bit lane, so one maddubs +
// madd pair reduces a full k-quad per column with no cross-column mixing;
// A slivers store the matching 4-byte weight quads per row for a single
// vpbroadcastd. K is zero-padded to a multiple of 4 in both packs (padding
// contributes 0·0 terms, so it never perturbs the sum or the zero-point
// correction). On AVX2 builds the B pack transposes each full 16-column
// sliver 4 k-rows at a time in registers (unpack{lo,hi}_epi8 then
// unpack{lo,hi}_epi16); ragged slivers and a final quad past k take the
// scalar loop, which generic builds run throughout, with identical bytes.
//
// Zero-point handling: for asymmetric activations x_q = x/s_x + zp, the
// driver computes Σ x_q·w_q − zp · Σ w_q using per-row weight sums captured
// at pack time, so C holds Σ (x_q − zp)·w_q exactly.
#pragma once

#include <cstdint>
#include <vector>

namespace tdc {

/// Weight panels packed once into the int8 micro-kernel's k-quad sliver
/// format, plus the per-row weight sums the zero-point correction needs.
/// The mirror of PackedGemmA for the quantized path: a convolution plan
/// packs its quantized weight matrix at compile time and every
/// gemm_prepacked_s8u8 call skips the pack entirely.
class PackedGemmAS8 {
 public:
  PackedGemmAS8() = default;
  std::int64_t rows() const { return m_; }
  std::int64_t depth() const { return k_; }
  bool empty() const { return panels_.empty(); }
  /// Per-row Σ_k A(i,k), for the caller's own zero-point math if needed.
  const std::int32_t* row_sums() const { return row_sums_.data(); }

 private:
  friend PackedGemmAS8 pack_gemm_a_s8(std::int64_t m, std::int64_t k,
                                      const std::int8_t* a, std::int64_t a_rs,
                                      std::int64_t a_cs);
  friend void gemm_prepacked_s8u8(const PackedGemmAS8& a, std::int64_t n,
                                  const std::uint8_t* b, std::int64_t ldb,
                                  std::int32_t b_zero_point, std::int32_t* c,
                                  std::int64_t ldc);
  std::int64_t m_ = 0;
  std::int64_t k_ = 0;
  std::vector<std::int8_t> panels_;
  std::vector<std::int32_t> row_sums_;
};

/// Packs A (A(i,kk) = a[i·a_rs + kk·a_cs], so transposes are stride swaps)
/// for reuse across many gemm_prepacked_s8u8 calls. Values must already be
/// quantized to [-127, 127] (see exec/quantize.h for the chooser).
PackedGemmAS8 pack_gemm_a_s8(std::int64_t m, std::int64_t k,
                             const std::int8_t* a, std::int64_t a_rs,
                             std::int64_t a_cs);

/// C[i·ldc + j] = Σ_k A(i,k) · (B[k·ldb + j] − b_zero_point), exactly, in
/// int32. B is a row-major unsigned-int8 matrix with values in [0, 127]
/// (the 7-bit activation domain) and `b_zero_point` its quantization zero
/// point (also in [0, 127]). C is overwritten. Allocation-free after
/// thread-local pack-buffer warm-up, deadline-polled between cache bands,
/// bit-identical across thread counts and between the AVX2 and scalar
/// kernels.
void gemm_prepacked_s8u8(const PackedGemmAS8& a, std::int64_t n,
                         const std::uint8_t* b, std::int64_t ldb,
                         std::int32_t b_zero_point, std::int32_t* c,
                         std::int64_t ldc);

// ---------------------------------------------------------------------------
// Requantization epilogues over the int32 accumulator. All of them compute
//
//   q = round_to_nearest_even(acc[i·ldc + j] · multiplier[i]) + zero_point
//
// with a per-row (per-output-channel) float multiplier, then saturate to the
// target domain. Round-to-nearest-even is exact-by-construction on both
// paths: the AVX2 epilogue uses _mm256_cvtps_epi32 (RNE under the default
// MXCSR) and the scalar one std::nearbyintf (RNE under the default
// fenv), over the identical float product. The AVX2 body stores 8 outputs
// per step through two signed packs (exact, as q is already clamped) and a
// scalar loop finishes each row. Allocation-free, deterministic.

/// Saturating int8 requantization: q clamped to [-128, 127].
void requantize_s8(const std::int32_t* acc, std::int64_t m, std::int64_t n,
                   std::int64_t ldc, const float* multiplier,
                   std::int32_t zero_point, std::int8_t* out,
                   std::int64_t ldo);

/// Saturating uint8 requantization into the 7-bit activation domain:
/// q clamped to [0, 127] — the form chained quantized GEMM stages consume.
void requantize_u8(const std::int32_t* acc, std::int64_t m, std::int64_t n,
                   std::int64_t ldc, const float* multiplier,
                   std::int32_t zero_point, std::uint8_t* out,
                   std::int64_t ldo);

/// Dequantization to fp32: out = acc · multiplier[i] (no rounding, no
/// clamp) — the epilogue of a quantized chain's final stage.
void dequantize_f32(const std::int32_t* acc, std::int64_t m, std::int64_t n,
                    std::int64_t ldc, const float* multiplier, float* out,
                    std::int64_t ldo);

}  // namespace tdc
