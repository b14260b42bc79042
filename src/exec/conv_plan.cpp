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

TDC_RUN_PATH void ConvPlan::run_with_epilogue(
    const float* x, float* y, std::span<float> workspace,
    const ConvEpilogue& epilogue) const {
  TDC_CHECK_MSG(static_cast<std::int64_t>(workspace.size()) *
                        static_cast<std::int64_t>(sizeof(float)) >=
                    workspace_bytes(),
                "conv plan workspace too small: need " +
                    std::to_string(workspace_bytes()) + " bytes");
  DenyAllocGuard guard("ConvPlan::run_with_epilogue");
  run_image_epilogue(
      x, y, workspace.first(static_cast<std::size_t>(workspace_bytes() /
                                                     sizeof(float))),
      epilogue);
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

 private:
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
