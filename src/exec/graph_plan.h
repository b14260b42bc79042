// Graph-level compilation: a whole ModelSpec as one serving artifact.
//
// The paper's end-to-end numbers (Figures 8–9) are measured over full
// networks, where pooling, inference BN/ReLU, residual adds, concats and the
// classifier head sit between the convolutions the codesign pass optimizes.
// InferenceSession compiles that entire inventory — a ModelSpec plus a
// codesign decision list plus the layer weights — into a DAG of OpPlans:
//
//   ModelSpec resnet = make_resnet18();
//   CodesignResult cd = run_codesign(device,
//                                    resnet.decomposable_conv_shapes(), opts);
//   auto weights = random_model_weights(resnet, seed);   // or trained ones
//   InferenceSession session = InferenceSession::compile(
//       device, resnet, weights, cd.layers);
//   std::vector<float> ws(session.workspace_bytes() / 4);
//   Tensor y({1000, 1, 1});
//   for (const Tensor& x : requests) session.run(x, &y, ws);
//
// A session has two views of the compiled graph:
//
//  * The op view — num_ops(), op(i), op_inputs(i), op_name(i) — holds one
//    OpPlan per model layer, in layer order, each runnable on its own.
//    Tools that observe or time single layers (int8 calibration, the
//    per-layer benchmark replay) walk it with their own buffers.
//  * The step list — what run() and run_batched() walk. A convolution whose
//    only consumer is an inference BN runs together with that BN, and with
//    the BN's only consumer when that is a ReLU or a 2-input add whose
//    other operand an earlier step has produced, as one step: the conv
//    plan applies BN, add and ReLU as a per-output-channel epilogue on its
//    own output pass (ConvPlan::run_with_epilogue), so those activations
//    never make a round trip through memory. A max-pool that only the BN
//    (or its ReLU) feeds joins the step too when the plan pools
//    (ConvPlan::pools): the step then computes pooled row bands and never
//    writes the convolution's full output. Every other op is a step of its
//    own. ResNet-18's 60 ops run as 22 steps (num_steps()), bitwise equal
//    to the op-by-op walk.
//
// Activations live in one arena planned by liveness analysis over the
// steps: every step output gets an offset for exactly the interval between
// its production and its last consumer, so residual skips and concat
// branches coexist without the arena growing to the sum of all
// activations, and the steady state performs no allocation at all. One
// plan workspace after the arena serves every step in turn, sized for the
// largest step — for a pooled step its band slots, not its conv's full
// scratch. Tools that run the op view size their own buffers from
// op(i).workspace_bytes().
// Convolution plans go through the process-wide PlanCache
// (exec/plan_cache.h), so recompiling a session for a repeated layer shape
// reuses packed weights, transforms and Tucker factorizations. Runs are
// bit-identical across thread counts and across cached vs cold compiles.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "core/codesign.h"
#include "exec/conv_plan.h"
#include "exec/op_plan.h"
#include "exec/op_plans.h"
#include "core/model_spec.h"

namespace tdc {

struct QuantTable;  // exec/quantize.h

/// Per-layer parameters, aligned with ModelSpec::layers. Only the fields the
/// layer kind needs are read; the rest stay empty.
struct LayerWeights {
  Tensor conv_kernel;  ///< kConv: CNRS [C, N, R, S]
  Tensor bn_scale;     ///< kElementwise/kBatchNorm: folded per-channel scale
  Tensor bn_shift;     ///< kElementwise/kBatchNorm: folded per-channel shift
  Tensor fc_weight;    ///< kFullyConnected: [out, in]
  Tensor fc_bias;      ///< kFullyConnected: [out], optional (may stay empty)
};

/// Deterministic synthetic weights for a model inventory (tests, benches,
/// serving smoke runs): He-scaled conv/FC weights and near-identity BN
/// affines, so activations stay O(1) through arbitrarily deep inventories.
std::vector<LayerWeights> random_model_weights(const ModelSpec& model,
                                               std::uint64_t seed);

/// Aligns a codesign decision list with model.layers: `decisions` holds one
/// entry per convolution, or one per decomposable (spatial-filter)
/// convolution — run_codesign's natural output for
/// model.decomposable_conv_shapes() — and each entry's shape must match its
/// layer's. Returns one pointer per layer, null where no decision applies
/// (all null for an empty list); throws Error(kInvalidArgument) otherwise.
/// InferenceSession::compile and calibrate_quant both align through this,
/// so they agree on which layers decompose.
std::vector<const LayerDecision*> align_decisions(
    const ModelSpec& model, const std::vector<LayerDecision>& decisions);

struct SessionOptions {
  /// Execution of decomposed layers (fused is the deployment default).
  TuckerExec tucker_exec = TuckerExec::kFused;
  /// Algorithm for convolutions the θ rule kept dense.
  ConvAlgo dense_algo = ConvAlgo::kAuto;
  /// Core-stage algorithm of staged Tucker layers.
  ConvAlgo tucker_core_algo = ConvAlgo::kIm2col;
  /// Resolves ConvAlgo::kAuto for dense layers and staged Tucker cores.
  /// Null selects the deployment default for where sessions actually
  /// execute — the host provider (exec/host_cost.h), so kAuto picks
  /// CPU-fast plans. Paper-repro paths that want selection priced for the
  /// descriptor's simulated DeviceSpec pass &simulated_gpu_cost_provider();
  /// &autotune_cost_provider() measures candidates instead of modeling them.
  const CostProvider* cost_provider = nullptr;
  /// Compile convolution plans through the process-wide PlanCache. Off, every
  /// plan is compiled privately (no sharing, no cache pollution).
  bool use_plan_cache = true;
  /// Calibrated activation-quantization table (calibrate_quant in
  /// exec/quantize.h), aligned with model.layers; the caller keeps it alive
  /// through compile(). Null — the default — serves every layer in fp32.
  /// With a table present, each calibrated convolution compiles int8 when
  /// TDC_INT8 says so (2 = always; 1 = when the cost provider's
  /// resolve_precision prices int8 cheaper; 0 = never), provided the
  /// layer's algorithm options admit the quantized engine (dense_algo — or
  /// tucker_core_algo for decomposed layers — is kAuto or kIm2col; a pinned
  /// transform-domain algorithm is respected over quantization).
  const QuantTable* quant = nullptr;
};

class InferenceSession {
 public:
  /// An empty session (no ops); assign from compile() before use.
  InferenceSession() = default;

  /// Compile the model into an executable DAG. `weights[i]` carries layer
  /// i's parameters. `decisions` is the codesign output: one entry per
  /// decomposable convolution (run_codesign over
  /// model.decomposable_conv_shapes()), or one per convolution layer; each
  /// entry's shape must match its layer, decomposed entries are compiled as
  /// Tucker pipelines at the decided ranks. Empty keeps every convolution
  /// dense.
  static InferenceSession compile(const DeviceSpec& device,
                                  const ModelSpec& model,
                                  const std::vector<LayerWeights>& weights,
                                  const std::vector<LayerDecision>& decisions = {},
                                  const SessionOptions& options = {});

  /// Producer id meaning "the model input" in op_inputs().
  static constexpr std::int64_t kModelInput = -1;

  /// Steps run() walks: fused convolutions plus every op not absorbed into
  /// one (see the header comment). At most num_ops().
  std::int64_t num_steps() const {
    return static_cast<std::int64_t>(steps_.size());
  }

  std::int64_t num_ops() const {
    return static_cast<std::int64_t>(nodes_.size());
  }
  const OpPlan& op(std::int64_t i) const {
    return *nodes_[static_cast<std::size_t>(i)].plan;
  }
  const std::string& op_name(std::int64_t i) const {
    return nodes_[static_cast<std::size_t>(i)].name;
  }
  /// Resolved producer edges of op i (kModelInput for the session input).
  std::span<const std::int64_t> op_inputs(std::int64_t i) const {
    return nodes_[static_cast<std::size_t>(i)].inputs;
  }

  const OpShape& input_shape() const { return input_shape_; }
  const OpShape& output_shape() const { return output_shape_; }

  /// Floats of the liveness-planned activation arena, which holds step
  /// outputs (diagnostics: compare against the sum of all intermediate
  /// activations to see the reuse).
  std::int64_t arena_floats() const { return arena_floats_; }

  /// Exact scratch bytes one run() touches: the activation arena plus the
  /// largest workspace a step runs with (ConvPlan::epilogue_workspace_bytes
  /// for fused steps). An op-view walk can need more: op(i) sizes its own.
  std::int64_t workspace_bytes() const;
  /// Scratch for run_batched over `batch` images: one workspace_bytes()
  /// slot per fan-out lane, sized from the runtime's thread count at call
  /// time. A smaller buffer holding at least workspace_bytes() still runs,
  /// just with a narrower fan-out.
  std::int64_t batched_workspace_bytes(std::int64_t batch) const;

  /// x (input_shape() floats) → y preallocated (output_shape() floats).
  /// Allocation-free; every output element written; bit-identical across
  /// calls and thread counts, and to the op-by-op walk of the op view.
  ///
  /// Failure contract (all entry points): a throw — invalid operands
  /// (kInvalidArgument), allocation failure (kResourceExhausted), deadline
  /// expiry (kDeadlineExceeded), non-finite step output under
  /// TDC_CHECK_FINITE (kDataCorruption, naming the step's first op) —
  /// leaves the session, the shared PlanCache and the thread pool fully
  /// reusable; only caller-owned scratch (workspace, *y) holds partial
  /// data, and the next successful run is bit-identical to a run of a
  /// never-faulted session.
  void run(const Tensor& x, Tensor* y, std::span<float> workspace) const;

  /// run() under a per-run latency budget: the graph walk polls the deadline
  /// at every step boundary (and the packed GEMM between cache-block bands)
  /// and throws Error(kDeadlineExceeded) when it expires. Equivalent to
  /// arming a DeadlineScope around run().
  void run(const Tensor& x, Tensor* y, std::span<float> workspace,
           const Deadline& deadline) const;

  /// Single-shot convenience: allocates output and workspace.
  Tensor run(const Tensor& x) const;

  /// Batched serving: x [B, C, H, W] → y preallocated [B, C', H', W'];
  /// images fan out across the parallel runtime, one full graph walk per
  /// workspace slot.
  void run_batched(const Tensor& x, Tensor* y,
                   std::span<float> workspace) const;

  /// run_batched() under a per-run latency budget (see the run overload);
  /// the deadline rides into the pool workers each image runs on.
  void run_batched(const Tensor& x, Tensor* y, std::span<float> workspace,
                   const Deadline& deadline) const;

 private:
  struct Node {
    std::shared_ptr<const OpPlan> plan;
    std::string name;
    std::vector<std::int64_t> inputs;  ///< producer node ids or kModelInput
  };

  static constexpr std::int64_t kNoResidual = -2;

  /// One unit of the run schedule: op `head` alone, or — when `conv` is
  /// set — the convolution `head` with its BN (and ReLU or add, and then
  /// max-pool) applied as an epilogue. Producers are step ids or
  /// kModelInput.
  struct Step {
    std::int64_t head = 0;             ///< first op: its plan and its name
    std::int64_t out_op = 0;           ///< the op whose output this is
    std::vector<std::int64_t> inputs;  ///< producers of head's inputs
    const ConvPlan* conv = nullptr;    ///< set for a fused convolution
    Tensor scale;                      ///< [N] BN scale (fused)
    Tensor shift;                      ///< [N] BN shift (fused)
    std::int64_t residual = kNoResidual;  ///< producer of the added operand
    bool relu = false;
    std::optional<PoolDescriptor> pool;  ///< the max-pool it ends in
    std::int64_t arena_offset = 0;     ///< output placement, in floats
  };

  static InferenceSession compile_impl(
      const DeviceSpec& device, const ModelSpec& model,
      const std::vector<LayerWeights>& weights,
      const std::vector<LayerDecision>& decisions,
      const SessionOptions& options);

  void plan_steps(const ModelSpec& model,
                  const std::vector<LayerWeights>& weights);
  void plan_arena();
  /// The epilogue a fused step runs its convolution with.
  static ConvEpilogue epilogue(const Step& step, const float* residual);
  void run_graph(const float* x, float* y, std::span<float> workspace) const;
  std::int64_t batch_slots(std::int64_t batch) const;

  std::vector<Node> nodes_;
  std::vector<Step> steps_;
  OpShape input_shape_;
  OpShape output_shape_;
  std::int64_t arena_floats_ = 0;
  std::int64_t plan_ws_floats_ = 0;
  // Frozen at compile time from workspace_guard_enabled(): when set, arena
  // blocks carry canary bands and workspace_bytes() includes them, so the
  // layout and the reported size can never disagree for a live session.
  bool guard_bands_ = false;
};

}  // namespace tdc
