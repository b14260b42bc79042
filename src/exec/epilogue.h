// The per-element arithmetic of inference BN, the residual add and ReLU,
// written once.
//
// A graph step (exec/graph_plan.h) runs a convolution together with the BN,
// ReLU and 2-input add that only it feeds, applying them as a
// per-output-channel epilogue on the convolution's own output pass. The
// elementwise plans (exec/op_plans.h) run the same three operations as
// separate passes. Both go through eltwise_row, so a fused step is bitwise
// the separate passes it replaces:
//
//   v = a·t + b          BN (one rounding on builds with FMA — how the
//                        compiler contracts the written expression — and a
//                        rounded multiply, then the add, elsewhere)
//   v = v + r            residual add
//   v = v > 0 ? v : 0    ReLU
//
// An add fused into a step computes bn + other, which for two operands is
// bitwise other + bn: IEEE addition is commutative.
//
// A step may also end in the max-pool that only its BN (or ReLU) feeds, the
// stem of ResNet-18 and DenseNet. The convolution then runs in bands of
// pooled rows: each band computes the convolution rows its pool windows
// read, applies BN and ReLU to them, and pools them straight into y, so the
// full-size convolution output is never written out. The pool is
// detail::pool_rows, the code the pool plan runs, over the same window
// order; max is exact, so the pooled step is bitwise the separate passes.
#pragma once

#include <cstdint>

#include "exec/op_plans.h"

namespace tdc {

/// Per-output-channel epilogue of a fused graph step, applied to every
/// element of a convolution's [N, OH, OW] output t:
///   v = scale[n]·t + shift[n]; v += residual (when set); v = max(v, 0)
///   (when relu); then, when `pool` is set, y = maxpool(v).
struct ConvEpilogue {
  const float* scale = nullptr;     ///< [N], the folded BN scale
  const float* shift = nullptr;     ///< [N], the folded BN shift
  const float* residual = nullptr;  ///< [N, OH, OW] or null; never aliases y
  bool relu = false;
  /// A max-pool over the [N, OH, OW] result, or null. When set, y is the
  /// pooled [N, PH, PW] map, `residual` must be null, and only plans whose
  /// ConvPlan::pools(*pool) is true accept the epilogue.
  const PoolDescriptor* pool = nullptr;

  /// Applies the epilogue in place to the `count` elements of output
  /// channel n that start at flat output index `at` (the residual is read
  /// at the same index).
  void apply(float* y, std::int64_t n, std::int64_t at,
             std::int64_t count) const;
};

namespace detail {

/// y[i] = f(t[i]) for i in [0, count), with f the arithmetic above: the
/// affine step only when `affine`, the add only when `residual` is
/// non-null, the clamp only when `relu`. t and y may be the same row.
void eltwise_row(const float* t, float* y, std::int64_t count, bool affine,
                 float a, float b, const float* residual, bool relu);

/// Pooled rows [o_h0, o_h1) of one channel under `d` (max or avg), written
/// to `out`, the channel's [out_h, out_w] plane. `rows` holds input rows
/// from `row0` on at stride d.in.w; only the rows the windows of those
/// pooled rows read, clipped to [0, d.in.h), are touched. Padding taps are
/// skipped (max) or left out of the divisor (avg).
void pool_rows(const PoolDescriptor& d, const float* rows, std::int64_t row0,
               std::int64_t o_h0, std::int64_t o_h1, float* out);

}  // namespace detail
}  // namespace tdc
