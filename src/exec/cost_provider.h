// Pluggable algorithm-selection policies for ConvAlgo::kAuto.
//
// The paper's selection story is hardware-aware: candidates are priced
// against a device cost model and the cheapest deployable one wins. Which
// model is the right one depends on where the plan will *execute*:
//
//   * SimulatedGpuCostProvider (here) — the paper-repro policy. Prices the
//     cuDNN stand-ins through gpusim (library_conv_cost) and the TDC core
//     kernel at its model-selected tiling (tdc_core_cost). This is what the
//     codesign pass and every figure reproduction assume.
//   * HostCostProvider (exec/host_cost.h) — the CPU-engine deployment
//     policy: an analytical model of the engine's own kernels, calibrated by
//     microbenchmarks on this machine. The default for InferenceSession
//     compiles.
//   * AutotuneCostProvider (exec/autotune.h) — times the cheapest candidate
//     plans on real buffers at compile time and memoizes the winners.
//
// A provider only decides *which* algorithm compiles; the compiled plan's
// execution is bit-reproducible regardless of who chose it, and the PlanCache
// keys kAuto plans on the provider's cache_key() so plans tuned under one
// policy are never served to another.
#pragma once

#include <string>
#include <vector>

#include "conv/conv.h"
#include "conv/conv_shape.h"
#include "gpusim/device.h"

namespace tdc {

/// Arithmetic precision of a compiled convolution plan. kInt8 selects the
/// quantized engine (exec/quantize.h): int8 weights/activations inside the
/// plan, fp32 at the plan boundary.
enum class Precision { kFp32, kInt8 };

class CostProvider {
 public:
  virtual ~CostProvider() = default;

  /// Short stable policy id ("simgpu", "host", "autotune").
  virtual const char* name() const = 0;

  /// Resolution provenance for cache keys: the id plus every constant the
  /// decision depends on (calibration numbers, thread count), so two
  /// providers — or one provider under two calibrations — that could
  /// disagree never alias in the PlanCache.
  virtual std::string cache_key() const = 0;

  /// Resolve ConvAlgo::kAuto for `shape` targeting `device`: returns a
  /// deployable algorithm that supports the shape (never kReference — the
  /// oracle is not a deployment path — and never kAuto), and never a
  /// transform-domain algorithm for a pointwise (1×1) filter.
  virtual ConvAlgo resolve(const DeviceSpec& device,
                           const ConvShape& shape) const = 0;

  /// Price fp32 against int8 for a calibrated layer: returns kInt8 when the
  /// quantized im2col plan is expected to beat the provider's resolved fp32
  /// algorithm on `shape`. Only consulted for layers that carry calibration
  /// (SessionOptions::quant) under TDC_INT8=1; TDC_INT8=2 overrides the
  /// answer. The base policy is conservative: fp32 always (the simulated-GPU
  /// provider keeps paper-repro selections untouched).
  virtual Precision resolve_precision(const DeviceSpec& /*device*/,
                                      const ConvShape& /*shape*/) const {
    return Precision::kFp32;
  }
};

/// The dense deployment candidates every provider prices for `shape`:
/// im2col always; Winograd/FFT when conv_algo_supports them and the filter
/// is not 1×1 (a pointwise layer is a bare channel-mix GEMM — transform
/// overhead can never pay for itself); the TDC core kernel last. kReference
/// is never a candidate.
std::vector<ConvAlgo> dense_algo_candidates(const ConvShape& shape);

/// The historical resolve_conv_algo policy as a provider: a thin adapter
/// over library_conv_cost / tdc_core_cost, decision-for-decision identical
/// to the pre-seam selector. Default for bare ConvDescriptors (paper-repro
/// and codesign paths).
class SimulatedGpuCostProvider final : public CostProvider {
 public:
  const char* name() const override { return "simgpu"; }
  /// The DeviceSpec is already a separate component of every plan-cache
  /// key, so the provenance is the policy id alone.
  std::string cache_key() const override { return "simgpu"; }
  ConvAlgo resolve(const DeviceSpec& device,
                   const ConvShape& shape) const override;
};

/// Process-wide instance (stateless; shared freely across threads).
const CostProvider& simulated_gpu_cost_provider();

}  // namespace tdc
