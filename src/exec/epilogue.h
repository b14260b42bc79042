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
#pragma once

#include <cstdint>

namespace tdc {

/// Per-output-channel epilogue of a fused graph step, applied to every
/// element of a convolution's [N, OH, OW] output t:
///   v = scale[n]·t + shift[n]; v += residual (when set); v = max(v, 0)
///   (when relu).
struct ConvEpilogue {
  const float* scale = nullptr;     ///< [N], the folded BN scale
  const float* shift = nullptr;     ///< [N], the folded BN shift
  const float* residual = nullptr;  ///< [N, OH, OW] or null; never aliases y
  bool relu = false;

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

}  // namespace detail
}  // namespace tdc
