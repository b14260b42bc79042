// Plan/execute convolution API — the deployment-facing layer.
//
// The paper's serving story is cuDNN-style: pick an algorithm (and, for the
// TDC kernel, a tiling) per layer once, then replay that decision over a
// stream of inference requests. This header is that lifecycle:
//
//   ConvDescriptor desc{.shape = layer, .algo = ConvAlgo::kAuto};
//   auto plan = compile_conv_plan(desc, kernel);        // once per layer
//   std::vector<float> ws(plan->workspace_bytes() / 4);
//   Tensor y({layer.n, layer.out_h(), layer.out_w()});
//   for (const Tensor& x : requests) plan->run(x, &y, ws);   // steady state
//
// A plan owns every per-layer invariant: the resolved algorithm, reshaped
// and GEMM-prepacked weights, precomputed Winograd/FFT transforms, the
// chosen TDC tiling or Tucker row band. run() touches only the caller's
// output and workspace — no allocation, no hidden state — so the steady
// state is allocation-free and bit-reproducible across calls and thread
// counts.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/function_ref.h"
#include "conv/conv.h"
#include "core/tdc_kernel.h"
#include "exec/epilogue.h"
#include "exec/op_plan.h"
#include "gpusim/device.h"
#include "tensor/layout.h"
#include "tucker/tucker.h"

namespace tdc {

class CostProvider;  // exec/cost_provider.h

/// Everything needed to compile a dense-convolution plan. `algo` may be
/// ConvAlgo::kAuto, resolved by `cost` against `device` — null selects the
/// simulated-GPU provider (the historical resolve_conv_algo policy); CPU
/// serving paths pass &host_cost_provider() / &autotune_cost_provider().
/// `weight_layout` names the storage order of the kernel tensor handed to
/// compile_conv_plan; `tiling` pins the TDC core tiling (any field < 1
/// selects the analytical-model tiling, falling back to the smallest tile
/// when the device has no feasible launch for the shape).
struct ConvDescriptor {
  ConvShape shape;
  ConvAlgo algo = ConvAlgo::kAuto;
  KernelLayout weight_layout = KernelLayout::kCNRS;
  DeviceSpec device = make_a100();
  TdcTiling tiling{0, 0, 0};
  const CostProvider* cost = nullptr;
};

/// How a Tucker-pipeline plan executes the three stages.
enum class TuckerExec {
  kFused,   ///< row-band streaming, all three stages per band (fastest)
  kStaged,  ///< materialized Z1/Z2 with a selectable core-stage plan
};

/// Compile request for the decomposed pipeline. `core_algo` picks the plan
/// of the staged middle convolution (kAuto allowed, resolved by `cost` —
/// null selects the simulated-GPU provider); the fused executor always uses
/// the banded im2col core. `row_tile` is the fused band height (0 picks the
/// cache-sizing default).
struct TuckerDescriptor {
  ConvShape shape;
  TuckerExec exec = TuckerExec::kFused;
  ConvAlgo core_algo = ConvAlgo::kIm2col;
  std::int64_t row_tile = 0;
  DeviceSpec device = make_a100();
  const CostProvider* cost = nullptr;
};

/// A compiled convolution: per-layer invariants + an allocation-free run.
/// One OpPlan implementation among several (exec/op_plan.h): input is the
/// layer's [C, H, W], output its [N, OH, OW]; run/run_batched/workspace
/// semantics are the shared OpPlan contract.
class ConvPlan : public OpPlan {
 public:
  /// The original problem geometry (for Tucker plans, the full C → N layer).
  const ConvShape& shape() const { return shape_; }
  /// Resolved algorithm (never kAuto). For Tucker-pipeline plans this is the
  /// core-stage algorithm; check decomposed() to tell the pipelines apart.
  ConvAlgo algo() const { return algo_; }
  const char* algo_name() const { return conv_algo_name(algo_); }
  /// True for Tucker-pipeline plans (compile_tucker_plan).
  virtual bool decomposed() const { return false; }
  /// True for int8 plans (exec/quantize.h): int8 arithmetic inside, fp32
  /// activations at the plan boundary like every other ConvPlan.
  virtual bool quantized() const { return false; }

  /// run_unchecked with `epilogue` applied to every output element — the
  /// entry point of a fused graph step. Bitwise equal to run_unchecked
  /// followed by the separate BN, add, ReLU and max-pool plans;
  /// allocation-free, and `workspace` needs
  /// epilogue_workspace_bytes(epilogue).
  TDC_RUN_PATH void run_with_epilogue(const float* x, float* y,
                                      std::span<float> workspace,
                                      const ConvEpilogue& epilogue) const;

  /// True when run_with_epilogue accepts an epilogue that ends in the
  /// max-pool `pool` (ConvEpilogue::pool): the plan computes its output in
  /// bands of pooled rows. The dense fp32 and int8 im2col plans do, except
  /// pointwise ones.
  bool pools(const PoolDescriptor& pool) const {
    return pooled_workspace_bytes(pool) > 0;
  }

  /// Exact scratch of run_with_epilogue under `epilogue`: workspace_bytes(),
  /// or, when the epilogue pools, the plan's band workspace — for the
  /// ResNet-18 stem a fraction of the full patch matrix.
  std::int64_t epilogue_workspace_bytes(const ConvEpilogue& epilogue) const;

 protected:
  ConvPlan(const ConvShape& shape, ConvAlgo algo);

  virtual void run_image(const float* x, float* y,
                         std::span<float> workspace) const = 0;

  /// The epilogue body; `workspace` is exactly
  /// epilogue_workspace_bytes(epilogue) / 4 floats. The default runs
  /// run_image, then one pass over y. Plans with a final output pass of
  /// their own (the int8 dequantize, the fused Tucker band's stage 3)
  /// apply the epilogue there instead, and plans that pool run the pooled
  /// band walk below.
  virtual void run_image_epilogue(const float* x, float* y,
                                  std::span<float> workspace,
                                  const ConvEpilogue& epilogue) const;

  /// Workspace of an epilogue that ends in `pool`; 0 (the default) when
  /// the plan cannot pool, which is what pools(pool) reads.
  virtual std::int64_t pooled_workspace_bytes(
      const PoolDescriptor& /*pool*/) const {
    return 0;
  }

  /// Writes convolution rows [r0, r1) of every output channel, no epilogue,
  /// to dst[n·ld + (r − r0)·OW + ow], using `scratch` (one band slot's
  /// plan-specific part).
  using PooledRowsFn = FunctionRef<void(std::int64_t r0, std::int64_t r1,
                                        float* scratch, float* dst,
                                        std::int64_t ld)>;

  /// The pooled band walk the pooling plans share. Pooled rows of y go in
  /// bands of at most pooled_tile(pool, row_bytes) rows. A band computes
  /// the convolution rows its windows read (conv_rows), keeping the rows it
  /// shares with the band before it instead of recomputing them, applies
  /// BN and ReLU to them, and max-pools them into y; no full-size output
  /// is ever written. `workspace` holds band slots of `slot_floats` each: a
  /// [N, pooled_band_rows] row buffer, then the plan's scratch. With more
  /// than one slot and region width, one region streams contiguous runs of
  /// bands, one slot per thread, every GEMM inline; otherwise the bands run
  /// serially and each pass splits over the region itself. Each element
  /// keeps its GEMM chain and max is exact, so y is bitwise the unpooled
  /// run followed by the pool plan, at any width and slot count.
  void run_pooled(const ConvEpilogue& epilogue, float* y,
                  std::span<float> workspace, std::int64_t slot_floats,
                  std::int64_t row_bytes, PooledRowsFn conv_rows) const;

  /// Pooled rows per band: as many as keep the band's convolution rows,
  /// at `row_bytes` of scratch each, near the band budget.
  std::int64_t pooled_tile(const PoolDescriptor& pool,
                           std::int64_t row_bytes) const;
  /// Convolution rows a band of pooled_tile(pool, row_bytes) pooled rows
  /// reads: the height of a slot's row buffer.
  std::int64_t pooled_band_rows(const PoolDescriptor& pool,
                                std::int64_t row_bytes) const;

  void run_node(std::span<const float* const> inputs, float* y,
                std::span<float> workspace) const final {
    run_image(inputs[0], y, workspace);
  }

  ConvShape shape_;
  ConvAlgo algo_;
};

/// Algorithm selection for ConvAlgo::kAuto under the *simulated-GPU* cost
/// model — simulated_gpu_cost_provider().resolve(), kept as a free function
/// for the paper-repro paths. Among the algorithms that support the shape
/// (conv_algo_supports), picks the one with the cheapest simulated latency
/// on `device` — the library adapters price the cuDNN stand-ins and
/// tdc_core_cost prices the TDC kernel at its model-selected tiling. Never
/// returns kReference (the oracle is not a deployment path).
/// Transform-domain algorithms are never selected for pointwise (1×1)
/// filters: a 1×1 convolution is a plain channel-mix GEMM, and the
/// transform overhead cannot pay for itself no matter what the padded-plane
/// cost model says. Host-aware selection lives in the CostProvider
/// implementations (exec/cost_provider.h, host_cost.h, autotune.h).
ConvAlgo resolve_conv_algo(const DeviceSpec& device, const ConvShape& shape);

/// Compile a dense plan. The kernel tensor is given in desc.weight_layout
/// order ([C,N,R,S] for kCNRS etc.) and is copied/reshaped into the plan.
std::unique_ptr<ConvPlan> compile_conv_plan(const ConvDescriptor& desc,
                                            const Tensor& kernel);

/// Workspace layout of a TuckerExec::kStaged plan: Z1 [D1, H·W] at float 0,
/// Z2 [D2, OH·OW] right after it, then the nested core plan's scratch. A run
/// leaves both intermediates whole in place, which is how calibration
/// (exec/quantize.cpp) observes them.
struct StagedTuckerLayout {
  std::int64_t z1_floats = 0;
  std::int64_t z2_floats = 0;
  std::int64_t core_offset() const { return z1_floats + z2_floats; }
};
StagedTuckerLayout staged_tucker_layout(const ConvShape& shape,
                                        TuckerRanks ranks);

/// Compile a Tucker-pipeline plan from decomposed factors. plan->shape() is
/// the full layer; the plan owns prepacked U1ᵀ/core/U2 panels.
std::unique_ptr<ConvPlan> compile_tucker_plan(const TuckerDescriptor& desc,
                                              const TuckerFactors& factors);

}  // namespace tdc
