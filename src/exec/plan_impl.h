// Internal factories of the per-algorithm ConvPlan implementations.
//
// compile_conv_plan (conv_plan.cpp) normalizes the kernel layout to CNRS and
// resolves kAuto, then hands off here; each factory lives next to its
// algorithm's tile math (plan_winograd.cpp, plan_fft.cpp) so the exec layer
// stays one algorithm per translation unit.
#pragma once

#include <memory>

#include "common/function_ref.h"
#include "exec/conv_plan.h"

namespace tdc::detail {

std::unique_ptr<ConvPlan> make_winograd_plan(const ConvShape& shape,
                                             const Tensor& kernel_cnrs);

std::unique_ptr<ConvPlan> make_fft_plan(const ConvShape& shape,
                                        const Tensor& kernel_cnrs);

// Shared batching machinery of ConvPlan::run_batched and
// InferenceSession::run_batched, so the slot policy lives in one place.

/// Concurrency slots for fanning `batch` items over at most `max_slots`
/// workers (>= 1 always).
std::int64_t batch_slots(std::int64_t batch, std::int64_t max_slots);

/// Slots a batched entry point actually fans out over: the runtime's thread
/// count *at call time*, clamped by the batch and by how many `per_slot`
/// float workspaces fit in the caller's `ws_floats` buffer. A workspace
/// sized under an older, smaller thread count narrows the fan-out instead
/// of failing; one sized with the current batched_workspace_bytes() gets
/// the full width.
std::int64_t clamped_batch_slots(std::int64_t batch, std::int64_t per_slot,
                                 std::int64_t ws_floats);

/// Fans items [0, batch) across `slots` workspace slices of `ws_floats`
/// floats each: contiguous item ranges per slot, run_one(item, slot_ws).
/// Bit-identical at any thread count — each item runs the same single-item
/// code against its slot's slice. Takes a non-owning FunctionRef so a
/// batched run opens its fan-out without heap allocation (the run-path
/// DenyAllocGuard invariant).
void run_slotted(std::int64_t batch, std::int64_t slots,
                 std::span<float> workspace, std::int64_t ws_floats,
                 FunctionRef<void(std::int64_t, std::span<float>)> run_one);

}  // namespace tdc::detail
