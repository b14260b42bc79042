// Process-wide compiled-plan cache, keyed by canonicalized requests.
//
// CNN inventories repeat layer shapes heavily (every ResNet stage reuses one
// geometry, serving fleets recompile the same model on every replica
// process), and plan compilation is the expensive half of the lifecycle:
// GEMM weight packing, Winograd/FFT filter transforms, Tucker decomposition.
// The cache makes recompilation of an identical layer free — cuDNN-style —
// by keying plans on everything that determines the compiled artifact:
//
//   kind ⊕ shape ⊕ algorithm request ⊕ ranks ⊕ device
//        ⊕ resolution provenance (fp32) / quant fingerprint (int8)
//        ⊕ weight fingerprint
//
// One PlanRequest describes every kind of convolution plan: ranks make it a
// Tucker pipeline, a LayerQuant makes it int8. The weight fingerprint
// (FNV-1a over the kernel bytes and dims) keeps two same-shape layers with
// different weights from aliasing. kAuto requests are cacheable before
// resolution because the key carries the resolution provenance — the cost
// provider's cache_key(), i.e. its id plus calibration constants — alongside
// the (device, shape) the provider resolves against; a host-tuned plan is
// therefore never served to a simulated-GPU compile of the same shape.
// Pinned-algorithm requests compile identically under every provider and
// share one entry. Int8 plans are always the quantized im2col pipeline, so
// their keys carry no algorithm request or provenance; the quant
// fingerprint keeps two calibrations of one model apart instead.
//
// Cached plans are shared as shared_ptr<const ConvPlan>: running a plan is
// const and touches only caller-owned output/workspace, so one compiled
// artifact can serve any number of sessions and threads concurrently.
// run_batched sizes its fan-out from the thread count at call time, so a
// cache hit serves the caller's current concurrency regardless of the
// setting at first compile. Same-key compiles are single-flight: concurrent
// callers of one key wait for the first caller's artifact instead of
// compiling duplicates (stats().misses counts exactly one compile). The
// cache never evicts; clear() exists for tests and cold-compile benchmarks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "exec/conv_plan.h"

namespace tdc {

struct LayerQuant;  // exec/quantize.h

/// 64-bit FNV-1a over a tensor's dims and payload bytes — the weight
/// identity used in cache keys.
std::uint64_t tensor_fingerprint(const Tensor& t);

/// One convolution compile request. `shape`, `kernel`, `device` and `cost`
/// apply to every plan kind; the rest picks the kind and its parameters:
///
///   * `ranks` set — a Tucker pipeline: the kernel is decomposed at these
///     ranks, and `exec`, `core_algo` and `row_tile` configure it
///     (TuckerDescriptor). Unset — a dense plan running `algo`
///     (ConvDescriptor, default layout and tiling).
///   * `quant` set — an int8 plan (exec/quantize.h): the quantized im2col
///     engine, which ignores the algorithm fields. Null — fp32.
///
/// `factors`, when set on a Tucker request, is a decomposition the caller
/// already holds (calibration's, see LayerQuant::factors, or the session's
/// batched one), and `factors_kernel` the tensor_fingerprint of the kernel
/// it was taken from. A compile uses it in place of decomposing only when
/// matching_factors() holds; otherwise it decomposes as usual. The factors
/// are then exactly tucker_decompose(*kernel, *ranks), so they stay out of
/// the key.
///
/// `kernel_fingerprint` is tensor_fingerprint(*kernel) when the caller
/// already has it, else 0 (computed on demand). InferenceSession::compile
/// hashes each kernel once and passes the result here, so the cache lookup,
/// the compile that may follow and the factors check never hash it again.
///
/// `kernel` points at the full CNRS [C, N, R, S] weight tensor; it, `quant`
/// and `factors` must outlive the compile call only.
struct PlanRequest {
  ConvShape shape;
  const Tensor* kernel = nullptr;
  DeviceSpec device = make_a100();
  const CostProvider* cost = nullptr;

  ConvAlgo algo = ConvAlgo::kAuto;

  std::optional<TuckerRanks> ranks;
  TuckerExec exec = TuckerExec::kFused;
  ConvAlgo core_algo = ConvAlgo::kIm2col;
  std::int64_t row_tile = 0;

  const LayerQuant* quant = nullptr;
  const TuckerFactors* factors = nullptr;
  std::uint64_t factors_kernel = 0;
  std::uint64_t kernel_fingerprint = 0;

  /// tensor_fingerprint(*kernel), or the caller's kernel_fingerprint.
  std::uint64_t kernel_id() const;

  /// True when this is a Tucker request whose `factors` were taken from
  /// `kernel` at `ranks`, so a compile can use them instead of decomposing.
  bool matching_factors() const;
};

/// Compiles `req` without the cache: the plan kind's compile_*_plan building
/// block, after decomposing the kernel for Tucker requests whose `factors`
/// are absent or do not match.
std::unique_ptr<ConvPlan> compile_plan(const PlanRequest& req);

class PlanCache {
 public:
  /// The process-wide instance every compile funnels through.
  static PlanCache& instance();

  /// Returns the cached plan for an equivalent request, or compiles it
  /// (compile_plan) and inserts on miss. A Tucker hit skips the
  /// decomposition too, since the key holds the original kernel and ranks.
  std::shared_ptr<const ConvPlan> get_or_compile(const PlanRequest& req);

  /// The cached plan for an equivalent request, or null; never compiles. A
  /// found plan counts as a hit. A miss counts nothing, because the
  /// get_or_compile that follows it counts its own lookup.
  std::shared_ptr<const ConvPlan> find(const PlanRequest& req);

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t entries = 0;
  };
  Stats stats() const;

  /// Drops every entry and resets the counters (plans already handed out
  /// stay alive through their shared_ptrs).
  void clear();

 private:
  PlanCache() = default;

  /// A compile in progress; same-key callers wait on it instead of
  /// duplicating the work (single-flight).
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const ConvPlan> plan;
    std::exception_ptr error;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const ConvPlan>> plans_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace tdc
