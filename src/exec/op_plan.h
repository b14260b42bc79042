// Generic compiled-operator interface — the unit the graph executor runs.
//
// Whole-network serving needs more than convolutions: pooling, inference
// batch-norm, residual adds, concats and the classifier head sit between the
// layers the codesign pass optimizes. OpPlan is the shared lifecycle all of
// them compile into:
//
//   * fixed shape-in/shape-out geometry, decided at compile time;
//   * workspace_bytes() — the exact scratch one run touches (0 possible);
//   * an allocation-free run over caller-owned buffers, bit-reproducible
//     across calls and thread counts.
//
// ConvPlan (exec/conv_plan.h) is one implementation; the memory-bound plans
// live in exec/op_plans.h and the graph compiler that chains them through a
// liveness-planned activation arena in exec/graph_plan.h.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_guard.h"
#include "common/annotations.h"
#include "common/check.h"
#include "tensor/tensor.h"

namespace tdc {

/// Single-image activation geometry: one [C, H, W] block of floats. Vectors
/// (the FC head's input/output) are {len, 1, 1}.
struct OpShape {
  std::int64_t c = 1;
  std::int64_t h = 1;
  std::int64_t w = 1;

  std::int64_t floats() const { return c * h * w; }
  std::string to_string() const;
  bool operator==(const OpShape&) const = default;
};

/// Operand/geometry agreement used by the checked run entry points: rank-3
/// tensors must match the [C, H, W] dims exactly (a same-numel permutation
/// computing garbage is precisely the bug class this catches); other ranks —
/// the FC head's vectors, flattened views — match by element count.
bool operand_matches(const Tensor& t, const OpShape& shape);

/// A compiled operator: fixed geometry + an allocation-free run.
class OpPlan {
 public:
  virtual ~OpPlan() = default;

  std::int64_t num_inputs() const {
    return static_cast<std::int64_t>(input_shapes_.size());
  }
  const OpShape& input_shape(std::int64_t i) const {
    return input_shapes_[static_cast<std::size_t>(i)];
  }
  const OpShape& output_shape() const { return output_shape_; }

  /// Exact scratch bytes one run touches (0 is possible). The plan never
  /// reads or writes workspace memory past this size.
  virtual std::int64_t workspace_bytes() const = 0;

  /// Scratch bytes a run_batched() call over `batch` images touches: one
  /// single-image workspace per concurrency slot, sized from the runtime's
  /// thread count at call time (a cached plan serves the caller's current
  /// concurrency, not the thread count at first compile).
  std::int64_t batched_workspace_bytes(std::int64_t batch) const;

  /// Multi-input execution over flat buffers: inputs[i] holds
  /// input_shape(i).floats() floats, y holds output_shape().floats(), and
  /// `workspace` is at least workspace_bytes() bytes of float storage. Every
  /// output element is written; results are bit-identical across repeated
  /// calls and thread counts. This is the entry point the graph executor
  /// chains through its activation arena.
  void run_inputs(std::span<const float* const> inputs, float* y,
                  std::span<float> workspace) const;

  /// Checked single-input convenience (requires num_inputs() == 1): element
  /// counts of x and *y must match the plan geometry.
  void run(const Tensor& x, Tensor* y, std::span<float> workspace) const;

  /// Single-shot convenience: allocates output and workspace, runs once.
  Tensor run(const Tensor& x) const;

  /// Batched serving entry point (requires num_inputs() == 1):
  /// x [B, C, H, W] → y [B, C', H', W'], images fanned across the parallel
  /// runtime with per-slot workspace slices. `workspace` needs
  /// batched_workspace_bytes(B) for the full fan-out; any smaller buffer
  /// holding at least workspace_bytes() narrows the fan-out to the slots
  /// that fit (correct, just less concurrent).
  void run_batched(const Tensor& x, Tensor* y,
                   std::span<float> workspace) const;

  /// Expert entry point over validated flat buffers (single-input plans
  /// only — a multi-input plan would read past the one pointer): what run()
  /// calls after checking operands once.
  TDC_RUN_PATH void run_unchecked(const float* x, float* y,
                                  std::span<float> workspace) const {
    TDC_CHECK_MSG(num_inputs() == 1,
                  "run_unchecked is single-input; use run_inputs");
    const float* inputs[1] = {x};
    // Allocation-free invariant of the execute path, machine-checked when
    // the guard is armed (TDC_ALLOC_GUARD=1 or debug builds).
    DenyAllocGuard guard("OpPlan::run");
    run_node(std::span<const float* const>(inputs, 1), y, workspace);
  }

 protected:
  OpPlan(std::vector<OpShape> input_shapes, OpShape output_shape);

  /// The operator body. `inputs` has num_inputs() validated pointers and
  /// `workspace` exactly workspace_bytes() / 4 floats.
  virtual void run_node(std::span<const float* const> inputs, float* y,
                        std::span<float> workspace) const = 0;

  /// Concurrency slots a batched run fans out over, from the runtime's
  /// thread count *at call time* (run_batched additionally clamps to the
  /// caller's workspace capacity).
  std::int64_t batch_slots(std::int64_t batch) const;

  /// Slot count frozen at plan construction from the widest region a run
  /// can open then: the thread count capped by the intra-op width. Plans
  /// whose *internal* scratch layout is slot-strided (plan_fft, the fused
  /// Tucker and pooled im2col band slots) size with this so
  /// workspace_bytes() never shifts under a live session when
  /// set_num_threads or set_arena_config changes; a run clamps to the slots
  /// its workspace holds.
  std::int64_t compile_batch_slots(std::int64_t batch) const;

  std::vector<OpShape> input_shapes_;
  OpShape output_shape_;
  std::int64_t compile_slots_;
};

}  // namespace tdc
