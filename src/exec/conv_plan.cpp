#include "exec/conv_plan.h"

#include <algorithm>
#include <vector>

#include "common/alloc_guard.h"
#include "common/annotations.h"
#include "common/check.h"
#include "common/parallel.h"
#include "conv/pointwise.h"
#include "core/tdc_model.h"
#include "exec/cost_provider.h"
#include "exec/plan_impl.h"
#include "linalg/gemm.h"

namespace tdc {

namespace detail {

std::int64_t batch_slots(std::int64_t batch, std::int64_t max_slots) {
  return std::max<std::int64_t>(std::min(batch, max_slots), 1);
}

std::int64_t clamped_batch_slots(std::int64_t batch, std::int64_t per_slot,
                                 std::int64_t ws_floats) {
  std::int64_t slots = batch_slots(batch, std::max(num_threads(), 1));
  if (per_slot > 0) {
    slots = std::min(slots, ws_floats / per_slot);
  }
  return std::max<std::int64_t>(slots, 1);
}

void run_slotted(std::int64_t batch, std::int64_t slots,
                 std::span<float> workspace, std::int64_t ws_floats,
                 FunctionRef<void(std::int64_t, std::span<float>)> run_one) {
  const std::int64_t per_slot = divup(batch, slots);
  parallel_for(0, slots, 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t slot = s0; slot < s1; ++slot) {
      std::span<float> slot_ws =
          workspace.subspan(static_cast<std::size_t>(slot * ws_floats),
                            static_cast<std::size_t>(ws_floats));
      const std::int64_t b_end = std::min(batch, (slot + 1) * per_slot);
      for (std::int64_t b = slot * per_slot; b < b_end; ++b) {
        run_one(b, slot_ws);
      }
    }
  });
}

}  // namespace detail

ConvPlan::ConvPlan(const ConvShape& shape, ConvAlgo algo)
    : OpPlan({OpShape{shape.c, shape.h, shape.w}},
             OpShape{shape.n, shape.out_h(), shape.out_w()}),
      shape_(shape),
      algo_(algo) {}

std::int64_t ConvPlan::epilogue_workspace_bytes(
    const ConvEpilogue& epilogue) const {
  return epilogue.pool != nullptr ? pooled_workspace_bytes(*epilogue.pool)
                                  : workspace_bytes();
}

TDC_RUN_PATH void ConvPlan::run_with_epilogue(
    const float* x, float* y, std::span<float> workspace,
    const ConvEpilogue& epilogue) const {
  if (epilogue.pool != nullptr) {
    const PoolDescriptor& pool = *epilogue.pool;
    TDC_CHECK_MSG(pool.kind == PoolKind::kMax &&
                      epilogue.residual == nullptr &&
                      pool.in == output_shape() && pools(pool),
                  "a pooled epilogue needs a pooling plan, a max-pool over "
                  "its output and no residual");
  }
  const std::int64_t bytes = epilogue_workspace_bytes(epilogue);
  TDC_CHECK_MSG(static_cast<std::int64_t>(workspace.size()) *
                        static_cast<std::int64_t>(sizeof(float)) >=
                    bytes,
                "conv plan workspace too small: need " +
                    std::to_string(bytes) + " bytes");
  DenyAllocGuard guard("ConvPlan::run_with_epilogue");
  run_image_epilogue(
      x, y, workspace.first(static_cast<std::size_t>(bytes / sizeof(float))),
      epilogue);
}

std::int64_t ConvPlan::pooled_tile(const PoolDescriptor& pool,
                                   std::int64_t row_bytes) const {
  // A band's convolution rows with their scratch stay within about
  // 1.5 MiB, so the patch rows the GEMM reads and the rows the pool reads
  // are still in L2 when they are read.
  constexpr std::int64_t kBandBytes = std::int64_t{3} << 19;
  const std::int64_t rows = kBandBytes / std::max<std::int64_t>(row_bytes, 1);
  return std::clamp<std::int64_t>((rows - pool.window_h) / pool.stride_h + 1,
                                  1, pool.out_h());
}

std::int64_t ConvPlan::pooled_band_rows(const PoolDescriptor& pool,
                                        std::int64_t row_bytes) const {
  return std::min(
      (pooled_tile(pool, row_bytes) - 1) * pool.stride_h + pool.window_h,
      shape_.out_h());
}

void ConvPlan::run_pooled(const ConvEpilogue& epilogue, float* y,
                          std::span<float> workspace,
                          std::int64_t slot_floats, std::int64_t row_bytes,
                          PooledRowsFn conv_rows) const {
  const PoolDescriptor& pool = *epilogue.pool;
  const std::int64_t n = shape_.n;
  const std::int64_t oh = shape_.out_h();
  const std::int64_t ow = shape_.out_w();
  const std::int64_t ph = pool.out_h();
  const std::int64_t pplane = ph * pool.out_w();
  const std::int64_t t_rows = pooled_band_rows(pool, row_bytes);
  const std::int64_t ld = t_rows * ow;
  const std::int64_t tile = pooled_tile(pool, row_bytes);

  // Pooled rows [p0, p1) in bands of at most `tile` rows, equal but for the
  // last, through the slot at `slot`.
  const auto run_bands = [&](std::int64_t p0, std::int64_t p1, float* slot) {
    float* t = slot;
    float* scratch = slot + n * ld;
    const std::int64_t band =
        detail::divup(p1 - p0, detail::divup(p1 - p0, tile));
    std::int64_t c0 = 0;  // convolution rows [c0, c1) are in t
    std::int64_t c1 = 0;
    for (std::int64_t pb = p0; pb < p1; pb += band) {
      const std::int64_t pe = std::min(pb + band, p1);
      const std::int64_t r0 =
          std::clamp(pb * pool.stride_h - pool.pad_h, std::int64_t{0}, oh);
      const std::int64_t r1 = std::clamp(
          (pe - 1) * pool.stride_h - pool.pad_h + pool.window_h, r0, oh);
      // The rows this band shares with the last one move to the top of t.
      const std::int64_t keep =
          c0 <= r0 && r0 < c1 ? std::min(c1, r1) - r0 : 0;
      if (keep > 0 && r0 > c0) {
        for (std::int64_t c = 0; c < n; ++c) {
          float* rows = t + c * ld;
          std::copy(rows + (r0 - c0) * ow, rows + (r0 - c0 + keep) * ow,
                    rows);
        }
      }
      if (r0 + keep < r1) {
        conv_rows(r0 + keep, r1, scratch, t + keep * ow, ld);
      }
      parallel_for(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (std::int64_t c = n0; c < n1; ++c) {
          float* rows = t + c * ld;
          detail::eltwise_row(rows + keep * ow, rows + keep * ow,
                              (r1 - r0 - keep) * ow, true,
                              epilogue.scale[c], epilogue.shift[c], nullptr,
                              epilogue.relu);
          detail::pool_rows(pool, rows, r0, pb, pe, y + c * pplane);
        }
      });
      c0 = r0;
      c1 = r1;
    }
  };

  const std::int64_t slots = std::min<std::int64_t>(
      {region_width(),
       static_cast<std::int64_t>(workspace.size()) / slot_floats, ph});
  if (slots <= 1) {
    run_bands(0, ph, workspace.data());
    return;
  }
  // Contiguous runs of pooled rows, one per thread and slot; each keeps
  // its rows between its own bands and recomputes one halo at its start.
  detail::run_chunked(slots, [&](std::int64_t chunk) {
    run_bands(chunk * ph / slots, (chunk + 1) * ph / slots,
              workspace.data() + chunk * slot_floats);
  });
}

void ConvPlan::run_image_epilogue(const float* x, float* y,
                                  std::span<float> workspace,
                                  const ConvEpilogue& epilogue) const {
  run_image(x, y, workspace);
  const std::int64_t plane = shape_.out_h() * shape_.out_w();
  parallel_for(0, shape_.n, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) {
      epilogue.apply(y, n, n * plane, plane);
    }
  });
}

namespace {

Tensor normalize_kernel_layout(const Tensor& kernel, KernelLayout layout) {
  switch (layout) {
    case KernelLayout::kCNRS:
      return kernel;
    case KernelLayout::kCRSN:
      return crsn_to_cnrs(kernel);
    case KernelLayout::kNCRS:
      return ncrs_to_cnrs(kernel);
  }
  TDC_CHECK_MSG(false, "unknown kernel layout");
}

// ---------------------------------------------------------------------------
// Reference: the oracle as a plan. No invariants beyond the kernel copy.
class ReferencePlanImpl final : public ConvPlan {
 public:
  ReferencePlanImpl(const ConvShape& shape, Tensor kernel_cnrs)
      : ConvPlan(shape, ConvAlgo::kReference),
        kernel_(std::move(kernel_cnrs)) {}

  std::int64_t workspace_bytes() const override { return 0; }

 protected:
  void run_image(const float* x, float* y,
                 std::span<float> /*workspace*/) const override {
    conv2d_reference_into(x, kernel_, shape_, y);
  }

 private:
  Tensor kernel_;
};

// ---------------------------------------------------------------------------
// im2col + GEMM with the [N, C·R·S] weight matrix packed into micro-kernel
// panels at compile time; the workspace holds the patch matrix. Unit-stride
// unpadded 1×1 layers (the pointwise convolutions of bottleneck and
// downsample paths) skip the patch copy entirely — their im2col buffer would
// be the input image verbatim, so the GEMM reads X in place and the
// workspace is zero.
class Im2colPlanImpl final : public ConvPlan {
 public:
  Im2colPlanImpl(const ConvShape& shape, const Tensor& kernel_cnrs)
      : ConvPlan(shape, ConvAlgo::kIm2col),
        pointwise_(shape.r == 1 && shape.s == 1 && shape.stride_h == 1 &&
                   shape.stride_w == 1 && shape.pad_h == 0 &&
                   shape.pad_w == 0) {
    const Tensor weights = conv_weight_matrix(kernel_cnrs, shape);
    packed_weights_ = pack_gemm_a(shape.n, shape.c * shape.r * shape.s,
                                  weights.raw(),
                                  shape.c * shape.r * shape.s, 1);
  }

  std::int64_t workspace_bytes() const override {
    if (pointwise_) {
      return 0;
    }
    return shape_.c * shape_.r * shape_.s * shape_.out_h() * shape_.out_w() *
           static_cast<std::int64_t>(sizeof(float));
  }

 protected:
  void run_image(const float* x, float* y,
                 std::span<float> workspace) const override {
    const std::int64_t ohw = shape_.out_h() * shape_.out_w();
    if (pointwise_) {
      pointwise_conv_prepacked(packed_weights_, x, ohw, y);
      return;
    }
    im2col_into(x, shape_, workspace.data());
    gemm_prepacked(packed_weights_, ohw, workspace.data(), ohw, 1, y, ohw);
  }

  // Pooled: per band, the patch matrix of its convolution rows and one
  // GEMM into the slot's row buffer. One slot per region thread at
  // compile, like the fused Tucker bands. Pointwise plans do not pool.
  std::int64_t pooled_workspace_bytes(
      const PoolDescriptor& pool) const override {
    if (pointwise_) {
      return 0;
    }
    return compile_batch_slots(pool.out_h()) * slot_floats(pool) *
           static_cast<std::int64_t>(sizeof(float));
  }

  void run_image_epilogue(const float* x, float* y,
                          std::span<float> workspace,
                          const ConvEpilogue& epilogue) const override {
    if (epilogue.pool == nullptr) {
      ConvPlan::run_image_epilogue(x, y, workspace, epilogue);
      return;
    }
    run_pooled(epilogue, y, workspace, slot_floats(*epilogue.pool),
               row_bytes(),
               [&](std::int64_t r0, std::int64_t r1, float* cols, float* dst,
                   std::int64_t ld) {
                 const std::int64_t cols_n = (r1 - r0) * shape_.out_w();
                 im2col_rows_into(x, shape_, r0, r1, cols);
                 gemm_prepacked(packed_weights_, cols_n, cols, cols_n, 1, dst,
                                ld);
               });
  }

 private:
  // Pooled-band scratch per convolution row: the row of every output
  // channel plus its patch-matrix columns.
  std::int64_t row_bytes() const {
    return (shape_.n + shape_.c * shape_.r * shape_.s) * shape_.out_w() *
           static_cast<std::int64_t>(sizeof(float));
  }
  std::int64_t slot_floats(const PoolDescriptor& pool) const {
    return pooled_band_rows(pool, row_bytes()) * row_bytes() /
           static_cast<std::int64_t>(sizeof(float));
  }

  PackedGemmA packed_weights_;
  bool pointwise_;
};

// ---------------------------------------------------------------------------
// The TDC core kernel scheme at a fixed tiling; scratch is the interpreter's
// per-slot shared-memory stage + register tile.
class TdcCorePlanImpl final : public ConvPlan {
 public:
  TdcCorePlanImpl(const ConvShape& shape, const Tensor& kernel_cnrs,
                  const TdcTiling& tiling)
      : ConvPlan(shape, ConvAlgo::kTdcCore),
        kernel_crsn_(cnrs_to_crsn(kernel_cnrs)),
        tiling_(tiling) {}

  std::int64_t workspace_bytes() const override {
    return tdc_core_workspace_floats(shape_, tiling_) *
           static_cast<std::int64_t>(sizeof(float));
  }

  const TdcTiling& tiling() const { return tiling_; }

 protected:
  void run_image(const float* x, float* y,
                 std::span<float> workspace) const override {
    tdc_core_conv_into(x, kernel_crsn_, shape_, tiling_, y, workspace);
  }

 private:
  Tensor kernel_crsn_;
  TdcTiling tiling_;
};

TdcTiling resolve_tdc_tiling(const DeviceSpec& device, const ConvShape& shape,
                             const TdcTiling& requested) {
  if (requested.th >= 1 && requested.tw >= 1 && requested.tc >= 1) {
    return requested;
  }
  // The analytical-model tiling is the paper's deployment choice; shapes the
  // device cannot launch at all (e.g. N beyond the block-thread limit) still
  // execute functionally at the smallest tile.
  try {
    return select_tiling_model(device, shape);
  } catch (const Error&) {
    return TdcTiling{1, 1, 1};
  }
}

}  // namespace

ConvAlgo resolve_conv_algo(const DeviceSpec& device, const ConvShape& shape) {
  return simulated_gpu_cost_provider().resolve(device, shape);
}

std::unique_ptr<ConvPlan> compile_conv_plan(const ConvDescriptor& desc,
                                            const Tensor& kernel) {
  TDC_CHECK_MSG(desc.shape.valid(),
                "invalid convolution shape " + desc.shape.to_string());
  TDC_CHECK_MSG(desc.shape.batch == 1,
                "descriptors are single-image; batching happens in "
                "run_batched");
  TDC_CHECK_MSG(kernel.rank() == 4, "kernel must be a rank-4 tensor");
  const Tensor kernel_cnrs = normalize_kernel_layout(kernel, desc.weight_layout);
  TDC_CHECK_MSG(kernel_cnrs.dim(0) == desc.shape.c &&
                    kernel_cnrs.dim(1) == desc.shape.n &&
                    kernel_cnrs.dim(2) == desc.shape.r &&
                    kernel_cnrs.dim(3) == desc.shape.s,
                "kernel tensor does not match shape descriptor");

  const CostProvider& cost =
      desc.cost != nullptr ? *desc.cost : simulated_gpu_cost_provider();
  const ConvAlgo algo = desc.algo == ConvAlgo::kAuto
                            ? cost.resolve(desc.device, desc.shape)
                            : desc.algo;
  TDC_CHECK_MSG(desc.algo != ConvAlgo::kAuto ||
                    (algo != ConvAlgo::kAuto && algo != ConvAlgo::kReference),
                std::string("cost provider '") + cost.name() +
                    "' resolved kAuto to a non-deployable algorithm");
  TDC_CHECK_MSG(conv_algo_supports(algo, desc.shape),
                std::string(conv_algo_name(algo)) + " does not support " +
                    desc.shape.to_string());

  switch (algo) {
    case ConvAlgo::kReference:
      return std::make_unique<ReferencePlanImpl>(desc.shape, kernel_cnrs);
    case ConvAlgo::kIm2col:
      return std::make_unique<Im2colPlanImpl>(desc.shape, kernel_cnrs);
    case ConvAlgo::kWinograd:
      return detail::make_winograd_plan(desc.shape, kernel_cnrs);
    case ConvAlgo::kFft:
      return detail::make_fft_plan(desc.shape, kernel_cnrs);
    case ConvAlgo::kTdcCore:
      return std::make_unique<TdcCorePlanImpl>(
          desc.shape, kernel_cnrs,
          resolve_tdc_tiling(desc.device, desc.shape, desc.tiling));
    case ConvAlgo::kAuto:
      break;  // resolved above
  }
  TDC_CHECK_MSG(false, "unreachable: unresolved algorithm");
}

}  // namespace tdc
