// Host machine calibration for the CPU cost model.
//
// The HostCostProvider prices candidates as GEMM-shaped flops over the
// machine's achieved GEMM rate plus packing/transform traffic over its
// streaming bandwidth. Those two constants are measured here, once per
// process, by microbenchmarks that run the engine's own kernels (the packed
// GEMM and a streaming copy through the shared parallel runtime) — so the
// numbers already include SIMD width, thread count, and whatever the
// container's CPU quota allows, with no datasheet guesswork.
//
// For deterministic tests and pinned deployments both constants can be
// forced through the environment:
//
//   TDC_HOST_GFLOPS=<achieved GEMM GFLOP/s>
//   TDC_HOST_GBS=<achieved streaming GB/s>
//   TDC_HOST_S8_GOPS=<achieved int8 GEMM GOP/s>
//
// When all are set no measurement runs at all.
#pragma once

namespace tdc {

struct HostCalibration {
  double gflops = 0.0;  ///< achieved packed-GEMM rate, GFLOP/s
  double gbs = 0.0;     ///< achieved streaming-copy bandwidth, GB/s
  double s8_gops = 0.0;  ///< achieved int8 packed-GEMM rate, GOP/s (MAC·2)
  bool gflops_from_env = false;
  bool gbs_from_env = false;
  bool s8_from_env = false;
};

/// The process-wide calibration: environment overrides where present,
/// measured (measure_* below) otherwise. Computed on first use, then
/// cached. Returned by value so a concurrent reset_host_calibration()
/// cannot invalidate what a caller is reading; thread-safe.
HostCalibration host_calibration();

/// Drops the cached calibration so the next host_calibration() call re-reads
/// the environment / re-measures. For tests and long-lived processes that
/// migrate between machines.
void reset_host_calibration();

/// Best-of-3 packed GEMM on L2-resident operands → achieved GFLOP/s.
double measure_gemm_gflops();

/// Best-of-3 streaming copy of 4 MiB into 4 MiB through the parallel
/// runtime → achieved GB/s (read + write traffic). The copy is small
/// because it runs on every cold build, inside the serving process.
double measure_stream_gbs();

/// Best-of-3 prepacked int8 GEMM (linalg/gemm_s8.h) on L2-resident operands
/// → achieved GOP/s, counting one multiply-accumulate as 2 ops like the
/// fp32 measurement so the two rates are directly comparable.
double measure_gemm_s8_gops();

}  // namespace tdc
