#include "exec/op_plan.h"

#include <algorithm>

#include "common/alloc_guard.h"
#include "common/annotations.h"
#include "common/check.h"
#include "common/parallel.h"
#include "exec/plan_impl.h"

namespace tdc {

std::string OpShape::to_string() const {
  // Built by append rather than operator+ chaining: GCC 12's -Wrestrict
  // false-positives on the chained form under -O2 (GCC bug 105329).
  std::string s = "[";
  s += std::to_string(c);
  s += ", ";
  s += std::to_string(h);
  s += ", ";
  s += std::to_string(w);
  s += "]";
  return s;
}

OpPlan::OpPlan(std::vector<OpShape> input_shapes, OpShape output_shape)
    : input_shapes_(std::move(input_shapes)),
      output_shape_(output_shape),
      compile_slots_(std::max(std::min(num_threads(), arena_config().intra_op),
                              1)) {
  TDC_CHECK_MSG(!input_shapes_.empty(), "an op plan needs at least one input");
}

std::int64_t OpPlan::batch_slots(std::int64_t batch) const {
  return detail::batch_slots(batch, std::max(num_threads(), 1));
}

std::int64_t OpPlan::compile_batch_slots(std::int64_t batch) const {
  return detail::batch_slots(batch, compile_slots_);
}

std::int64_t OpPlan::batched_workspace_bytes(std::int64_t batch) const {
  TDC_CHECK(batch >= 1);
  return batch_slots(batch) * workspace_bytes();
}

TDC_RUN_PATH void OpPlan::run_inputs(std::span<const float* const> inputs,
                                     float* y,
                        std::span<float> workspace) const {
  TDC_CHECK_MSG(static_cast<std::int64_t>(inputs.size()) == num_inputs(),
                "op plan expects " + std::to_string(num_inputs()) +
                    " inputs, got " + std::to_string(inputs.size()));
  TDC_CHECK_MSG(y != nullptr, "op plan output must not be null");
  TDC_CHECK_MSG(static_cast<std::int64_t>(workspace.size()) *
                        static_cast<std::int64_t>(sizeof(float)) >=
                    workspace_bytes(),
                "op plan workspace too small: need " +
                    std::to_string(workspace_bytes()) + " bytes");
  DenyAllocGuard guard("OpPlan::run_inputs");
  run_node(inputs, y,
           workspace.first(
               static_cast<std::size_t>(workspace_bytes() / sizeof(float))));
}

bool operand_matches(const Tensor& t, const OpShape& shape) {
  if (t.rank() == 3) {
    return t.dim(0) == shape.c && t.dim(1) == shape.h && t.dim(2) == shape.w;
  }
  return t.numel() == shape.floats();
}

TDC_RUN_PATH void OpPlan::run(const Tensor& x, Tensor* y,
                              std::span<float> workspace) const {
  TDC_CHECK_MSG(num_inputs() == 1,
                "checked single-input run on a multi-input plan; use "
                "run_inputs");
  TDC_CHECK_MSG(operand_matches(x, input_shape(0)),
                "plan input does not match " + input_shape(0).to_string());
  TDC_CHECK_MSG(y != nullptr && operand_matches(*y, output_shape_),
                "plan output must be a preallocated " +
                    output_shape_.to_string() + " tensor");
  TDC_CHECK_MSG(static_cast<std::int64_t>(workspace.size()) *
                        static_cast<std::int64_t>(sizeof(float)) >=
                    workspace_bytes(),
                "plan workspace too small: need " +
                    std::to_string(workspace_bytes()) + " bytes");
  run_unchecked(x.raw(), y->raw(),
                workspace.first(static_cast<std::size_t>(workspace_bytes() /
                                                         sizeof(float))));
}

Tensor OpPlan::run(const Tensor& x) const {
  // The only allocating entry point of a compiled plan: a starved
  // convenience workspace surfaces as kResourceExhausted instead of a bare
  // bad_alloc, and the plan itself stays reusable.
  return map_resource_failure("OpPlan::run workspace", [&] {
    Tensor y({output_shape_.c, output_shape_.h, output_shape_.w});
    std::vector<float> workspace(
        static_cast<std::size_t>(workspace_bytes() / sizeof(float)));
    run(x, &y, workspace);
    return y;
  });
}

TDC_RUN_PATH void OpPlan::run_batched(const Tensor& x, Tensor* y,
                                      std::span<float> workspace) const {
  TDC_CHECK_MSG(num_inputs() == 1,
                "batched run is single-input; multi-input plans run inside a "
                "graph");
  const OpShape& in = input_shape(0);
  TDC_CHECK_MSG(x.rank() == 4 && x.dim(1) == in.c && x.dim(2) == in.h &&
                    x.dim(3) == in.w,
                "batched plan input must be [B, C, H, W]");
  const std::int64_t batch = x.dim(0);
  TDC_CHECK_MSG(y != nullptr && y->rank() == 4 && y->dim(0) == batch &&
                    y->dim(1) == output_shape_.c &&
                    y->dim(2) == output_shape_.h &&
                    y->dim(3) == output_shape_.w,
                "batched plan output must be a preallocated "
                "[B, C', H', W'] tensor");
  const std::int64_t ws_floats = static_cast<std::int64_t>(workspace.size());
  const std::int64_t per_slot = workspace_bytes() / sizeof(float);
  TDC_CHECK_MSG(ws_floats * static_cast<std::int64_t>(sizeof(float)) >=
                    workspace_bytes(),
                "batched plan workspace too small: need at least "
                "workspace_bytes() for one slot");

  const std::int64_t x_stride = in.floats();
  const std::int64_t y_stride = output_shape_.floats();
  DenyAllocGuard guard("OpPlan::run_batched");
  detail::run_slotted(
      batch, detail::clamped_batch_slots(batch, per_slot, ws_floats),
      workspace, per_slot, [&](std::int64_t b, std::span<float> slot_ws) {
        run_unchecked(x.raw() + b * x_stride, y->raw() + b * y_stride,
                      slot_ws);
      });
}

}  // namespace tdc
