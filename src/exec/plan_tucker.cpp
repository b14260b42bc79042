// Tucker-pipeline plans (paper Eqs. 2–4, Figure 3).
//
// Both executors own every per-layer invariant of the decomposed pipeline:
// U1ᵀ, the [D2, D1·R·S] core-weight reshape, and U2 are packed into GEMM
// panels once at compile time, so a batched run packs nothing per image or
// per band (the ROADMAP multi-image-fusion item: the per-band panel packs of
// the old fused path are gone entirely).
//
//  * kFused — the row-band streamer: per output-row band the stage-1
//    pointwise runs only over the input rows the core convolution touches,
//    the core R×S GEMM consumes the band's patch matrix, and the stage-3
//    pointwise commits straight into the output. All intermediates live in
//    band-sized workspace. Numerically identical to the staged pipeline
//    with the im2col core.
//
//    Band-parallel execution: one run opens one region of the shared
//    runtime and gives each thread a contiguous run of whole bands, which it
//    streams end to end (slab, patches, core GEMM, stage 3) through its own
//    band workspace, every GEMM inline — the paper's one-tile-per-block
//    shape, instead of splitting each small GEMM of each band across the
//    threads. The region is min(region_width(), band slots the workspace
//    holds, output rows) wide; the band count is rounded up to a multiple
//    of that and the row tile shrinks to match, so every thread gets an
//    equal share. The workspace holds one band slot per thread at compile
//    time (a compile-time constant like the batch slots; a narrower
//    workspace narrows the region). At width 1 — fleet lanes, run_batched
//    image slots, nested calls — or with one slot, the bands run serially
//    and each GEMM splits over the region itself. Every output element is
//    the same GEMM chain whatever the band height, so results are bitwise
//    independent of width, slots and row tile.
//  * kStaged — materializes Z1/Z2 in workspace and runs the middle
//    convolution through a nested ConvPlan, so every core algorithm
//    (reference, im2col, Winograd, FFT, TDC core, auto) composes with the
//    decomposition. Its workspace layout (staged_tucker_layout: Z1, then
//    Z2, then the core plan's scratch) is a contract, not an internal
//    detail: int8 calibration runs a staged fp32 session and reads each
//    layer's Z1/Z2 from the workspace after the run, so the layout must
//    keep both intermediates whole and in place.
#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/parallel.h"
#include "exec/conv_plan.h"
#include "linalg/gemm.h"
#include "tucker/flops.h"

namespace tdc {

namespace {

// Output-row band height targeting a cache-resident patch matrix
// (the largest scratch buffer) of at most ~1 MiB.
std::int64_t auto_row_tile(const ConvShape& core, std::int64_t oh) {
  const std::int64_t patch_row_bytes = core.c * core.r * core.s * core.out_w() * 4;
  const std::int64_t budget = std::int64_t{1} << 20;
  return std::clamp<std::int64_t>(budget / std::max<std::int64_t>(patch_row_bytes, 1),
                                  1, oh);
}

class FusedTuckerPlanImpl final : public ConvPlan {
 public:
  FusedTuckerPlanImpl(const ConvShape& shape, const TuckerFactors& factors,
                      std::int64_t row_tile)
      : ConvPlan(shape, ConvAlgo::kIm2col),
        ranks_(factors.ranks()),
        core_(core_conv_shape(shape, ranks_)) {
    const std::int64_t crs = ranks_.d1 * core_.r * core_.s;
    const Tensor core_w = conv_weight_matrix(factors.core, core_);
    packed_core_ = pack_gemm_a(ranks_.d2, crs, core_w.raw(), crs, 1);
    // U1 is stored [C, D1]; stage 1 reads it as U1ᵀ (stride swap).
    packed_u1_ = pack_gemm_a(ranks_.d1, shape.c, factors.u1.raw(), 1,
                             ranks_.d1);
    packed_u2_ = pack_gemm_a(shape.n, ranks_.d2, factors.u2.raw(), ranks_.d2,
                             1);
    row_tile_ = row_tile > 0 ? std::min(row_tile, shape.out_h())
                             : auto_row_tile(core_, shape.out_h());
    const std::int64_t ow = shape.out_w();
    slab_floats_ = ranks_.d1 * slab_rows(row_tile_) * shape.w;
    cols_floats_ = crs * row_tile_ * ow;
    band_floats_ = slab_floats_ + cols_floats_ + ranks_.d2 * row_tile_ * ow;
    // One band workspace per thread at compile, at most one per output row.
    band_slots_ = compile_batch_slots(shape.out_h());
  }

  bool decomposed() const override { return true; }

  std::int64_t workspace_bytes() const override {
    return band_slots_ * band_floats_ *
           static_cast<std::int64_t>(sizeof(float));
  }

 protected:
  void run_image(const float* x, float* y,
                 std::span<float> workspace) const override {
    run(x, y, workspace, nullptr);
  }

  // The epilogue runs on each band right after its stage 3, while the band
  // is still in cache.
  void run_image_epilogue(const float* x, float* y,
                          std::span<float> workspace,
                          const ConvEpilogue& epilogue) const override {
    run(x, y, workspace, &epilogue);
  }

 private:
  void run(const float* x, float* y, std::span<float> workspace,
           const ConvEpilogue* epilogue) const {
    const std::int64_t oh = shape_.out_h();
    const std::int64_t slots = std::min<std::int64_t>(
        {region_width(),
         static_cast<std::int64_t>(workspace.size()) / band_floats_, oh});
    if (slots <= 1) {
      run_bands(x, y, 0, oh, row_tile_, workspace.data(), epilogue);
      return;
    }
    // Whole bands per thread: each chunk streams a contiguous run of row
    // bands through its own band workspace, and every GEMM inside runs
    // inline. The band count is rounded up to a multiple of the slots and
    // the tile shrinks to match, so every slot gets an equal share of rows.
    const std::int64_t tile = detail::divup(
        oh, detail::divup(detail::divup(oh, row_tile_), slots) * slots);
    const std::int64_t bands = detail::divup(oh, tile);
    const std::int64_t chunks = std::min(slots, bands);
    detail::run_chunked(chunks, [&](std::int64_t chunk) {
      const std::int64_t b0 = chunk * bands / chunks;
      const std::int64_t b1 = (chunk + 1) * bands / chunks;
      run_bands(x, y, b0 * tile, std::min(oh, b1 * tile), tile,
                workspace.data() + chunk * band_floats_, epilogue);
    });
  }

  // Input rows the core convolution reads for `band_oh` output rows.
  std::int64_t slab_rows(std::int64_t band_oh) const {
    return (band_oh - 1) * core_.stride_h + core_.r;
  }

  // Output rows [oh_begin, oh_end) in bands of `tile` rows, all three
  // stages per band (and the epilogue, when set), through one band
  // workspace.
  void run_bands(const float* x, float* y, std::int64_t oh_begin,
                 std::int64_t oh_end, std::int64_t tile, float* ws,
                 const ConvEpilogue* epilogue) const {
    const std::int64_t oh = shape_.out_h();
    const std::int64_t ow = shape_.out_w();
    const std::int64_t w = shape_.w;
    float* z1_slab = ws;
    float* cols = z1_slab + slab_floats_;
    float* z2_band = cols + cols_floats_;

    for (std::int64_t oh0 = oh_begin; oh0 < oh_end; oh0 += tile) {
      const std::int64_t band_oh = std::min(tile, oh_end - oh0);
      const std::int64_t hw_band = band_oh * ow;
      // Input rows the core convolution touches for this band; rows outside
      // [0, H) are the zero padding of the core stage, and the stage-1
      // pointwise maps zero rows to zero rows.
      const std::int64_t ih0 = oh0 * core_.stride_h - core_.pad_h;
      const std::int64_t slab_h = slab_rows(band_oh);
      const std::int64_t slab_hw = slab_h * w;
      const std::int64_t valid_lo = std::max<std::int64_t>(ih0, 0);
      const std::int64_t valid_hi = std::min(ih0 + slab_h, shape_.h);
      const std::int64_t pad_lo = (valid_lo - ih0) * w;   // leading zero cols
      const std::int64_t pad_hi =
          (ih0 + slab_h - std::max(valid_hi, valid_lo)) * w;  // trailing

      // Stage 1 on the slab only: Z1[D1, slab] = U1ᵀ · X[C, slab]. The input
      // row slab is read in place through the channel stride H·W; only the
      // padding rows are filled by hand.
      for (std::int64_t d1 = 0; d1 < ranks_.d1; ++d1) {
        float* row = z1_slab + d1 * slab_hw;
        std::fill(row, row + pad_lo, 0.0f);
        std::fill(row + slab_hw - pad_hi, row + slab_hw, 0.0f);
      }
      if (valid_hi > valid_lo) {
        gemm_prepacked(packed_u1_, (valid_hi - valid_lo) * w,
                       /*b=*/x + valid_lo * w, /*b_rs=*/shape_.h * w,
                       /*b_cs=*/1, /*c=*/z1_slab + pad_lo, /*ldc=*/slab_hw);
      }

      // Patch matrix of the band: im2col over the slab as a D1-channel
      // image of slab_h rows. pad_h is already folded into the slab's zero
      // rows; pad_w is applied here.
      ConvShape band = core_;
      band.h = slab_h;
      band.pad_h = 0;
      im2col_into(z1_slab, band, cols);

      // Core stage: Z2[D2, band] = Wcore[D2, D1·R·S] · cols.
      gemm_prepacked(packed_core_, hw_band, cols, hw_band, 1, z2_band,
                     hw_band);

      // Stage 3: Y[N, band] = U2[N, D2] · Z2, committed straight into the
      // output's row band through the plane stride OH·OW.
      gemm_prepacked(packed_u2_, hw_band, z2_band, hw_band, 1,
                     /*c=*/y + oh0 * ow, /*ldc=*/oh * ow);
      if (epilogue != nullptr) {
        for (std::int64_t n = 0; n < shape_.n; ++n) {
          epilogue->apply(y, n, n * oh * ow + oh0 * ow, hw_band);
        }
      }
    }
  }

  TuckerRanks ranks_;
  ConvShape core_;
  PackedGemmA packed_core_;
  PackedGemmA packed_u1_;
  PackedGemmA packed_u2_;
  std::int64_t row_tile_ = 1;
  std::int64_t slab_floats_ = 0;  // Z1 slab of a row_tile_ band
  std::int64_t cols_floats_ = 0;  // its patch matrix
  std::int64_t band_floats_ = 0;  // one band workspace: slab, patches, Z2
  std::int64_t band_slots_ = 1;
};

class StagedTuckerPlanImpl final : public ConvPlan {
 public:
  StagedTuckerPlanImpl(const ConvShape& shape, const TuckerFactors& factors,
                       std::unique_ptr<ConvPlan> core_plan)
      : ConvPlan(shape, core_plan->algo()),
        ranks_(factors.ranks()),
        layout_(staged_tucker_layout(shape, ranks_)),
        core_plan_(std::move(core_plan)) {
    packed_u1_ = pack_gemm_a(ranks_.d1, shape.c, factors.u1.raw(), 1,
                             ranks_.d1);
    packed_u2_ = pack_gemm_a(shape.n, ranks_.d2, factors.u2.raw(), ranks_.d2,
                             1);
  }

  bool decomposed() const override { return true; }

  std::int64_t workspace_bytes() const override {
    return layout_.core_offset() * static_cast<std::int64_t>(sizeof(float)) +
           core_plan_->workspace_bytes();
  }

 protected:
  void run_image(const float* x, float* y,
                 std::span<float> workspace) const override {
    const std::int64_t hw = shape_.h * shape_.w;
    const std::int64_t ohw = shape_.out_h() * shape_.out_w();
    float* z1 = workspace.data();
    float* z2 = z1 + layout_.z1_floats;
    std::span<float> core_ws =
        workspace.subspan(static_cast<std::size_t>(layout_.core_offset()));

    // Stage 1 (Eq. 2): Z1[D1, HW] = U1ᵀ · X.
    gemm_prepacked(packed_u1_, hw, x, hw, 1, z1, hw);
    // Core stage through the nested plan.
    core_plan_->run_unchecked(z1, z2, core_ws);
    // Stage 3 (Eq. 4): Y[N, OHW] = U2 · Z2.
    gemm_prepacked(packed_u2_, ohw, z2, ohw, 1, y, ohw);
  }

 private:
  TuckerRanks ranks_;
  StagedTuckerLayout layout_;
  std::unique_ptr<ConvPlan> core_plan_;
  PackedGemmA packed_u1_;
  PackedGemmA packed_u2_;
};

}  // namespace

StagedTuckerLayout staged_tucker_layout(const ConvShape& shape,
                                        TuckerRanks ranks) {
  return {.z1_floats = ranks.d1 * shape.h * shape.w,
          .z2_floats = ranks.d2 * shape.out_h() * shape.out_w()};
}

std::unique_ptr<ConvPlan> compile_tucker_plan(const TuckerDescriptor& desc,
                                              const TuckerFactors& factors) {
  TDC_CHECK_MSG(desc.shape.valid(),
                "invalid convolution shape " + desc.shape.to_string());
  TDC_CHECK_MSG(desc.shape.batch == 1,
                "descriptors are single-image; batching happens in "
                "run_batched");
  TDC_CHECK_MSG(factors.u1.rank() == 2 && factors.u1.dim(0) == desc.shape.c,
                "U1 row count != C");
  TDC_CHECK_MSG(factors.u2.rank() == 2 && factors.u2.dim(0) == desc.shape.n,
                "U2 row count != N");
  const TuckerRanks ranks = factors.ranks();
  TDC_CHECK_MSG(factors.core.rank() == 4 &&
                    factors.core.dim(0) == ranks.d1 &&
                    factors.core.dim(1) == ranks.d2 &&
                    factors.core.dim(2) == desc.shape.r &&
                    factors.core.dim(3) == desc.shape.s,
                "core tensor does not match factors/shape");

  if (desc.exec == TuckerExec::kFused) {
    return std::make_unique<FusedTuckerPlanImpl>(desc.shape, factors,
                                                 desc.row_tile);
  }
  ConvDescriptor core_desc;
  core_desc.shape = core_conv_shape(desc.shape, ranks);
  core_desc.algo = desc.core_algo;
  core_desc.device = desc.device;
  core_desc.cost = desc.cost;
  return std::make_unique<StagedTuckerPlanImpl>(
      desc.shape, factors, compile_conv_plan(core_desc, factors.core));
}

}  // namespace tdc
