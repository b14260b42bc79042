#include "exec/microbench.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <vector>

#include "common/parallel.h"
#include "linalg/gemm.h"
#include "linalg/gemm_s8.h"

namespace tdc {

namespace {

using Clock = std::chrono::steady_clock;

double env_positive(const char* name, bool* from_env) {
  const char* v = std::getenv(name);
  if (v != nullptr && *v != '\0') {
    const double x = std::atof(v);
    if (x > 0.0) {
      *from_env = true;
      return x;
    }
  }
  *from_env = false;
  return 0.0;
}

std::mutex& calibration_mutex() {
  static std::mutex mu;
  return mu;
}

std::optional<HostCalibration>& calibration_slot() {
  static std::optional<HostCalibration> slot;
  return slot;
}

}  // namespace

double measure_gemm_gflops() {
  // The engine's own packed kernel on operands small enough to stay cache
  // resident: what the im2col / transform-domain GEMMs actually sustain,
  // SIMD width and thread fan-out included. ~14 MFLOP per rep.
  constexpr std::int64_t kDim = 192;
  std::vector<float> a(static_cast<std::size_t>(kDim * kDim), 1.0f);
  std::vector<float> b(static_cast<std::size_t>(kDim * kDim), 0.5f);
  std::vector<float> c(static_cast<std::size_t>(kDim * kDim), 0.0f);
  const double flop = 2.0 * kDim * kDim * kDim;
  gemm(kDim, kDim, kDim, a, b, c);  // warm-up: pool spin-up, page faults
  double best_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    gemm(kDim, kDim, kDim, a, b, c);
    best_s = std::min(
        best_s, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return flop / best_s / 1e9;
}

double measure_stream_gbs() {
  // Streaming copy, the traffic pattern of im2col packing and the
  // transform scatter/gather stages. The probe runs on every cold build,
  // inside the serving process, so 4 MiB source + 4 MiB destination keeps
  // its footprint off that process's peak memory. No size defeats the
  // cache of every host (a 4-vCPU Xeon with 2 MiB of L2 per core has a
  // 300 MiB L3). There, copies of 2×2 through 2×16 MiB read a flat
  // 21–26 GB/s and 2×32 MiB 12–18 GB/s, three runs each at 2 and 4
  // threads. The rate the probe reads does not steer ResNet-18: its
  // fused fp32 Tucker, calibrated int8 and dense kAuto sessions pick the
  // same per-layer plans at any rate from 6 to 96 GB/s.
  constexpr std::int64_t kFloats = 1ll << 20;
  std::vector<float> src(static_cast<std::size_t>(kFloats), 1.0f);
  std::vector<float> dst(static_cast<std::size_t>(kFloats), 0.0f);
  const double bytes = 2.0 * static_cast<double>(kFloats) * sizeof(float);
  auto copy = [&] {
    parallel_for(0, kFloats, 1 << 16, [&](std::int64_t i0, std::int64_t i1) {
      std::memcpy(dst.data() + i0, src.data() + i0,
                  static_cast<std::size_t>(i1 - i0) * sizeof(float));
    });
  };
  copy();  // warm-up
  double best_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    copy();
    best_s = std::min(
        best_s, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return bytes / best_s / 1e9;
}

double measure_gemm_s8_gops() {
  // The quantized serving kernel at the same L2-resident square as the fp32
  // measurement, prepacked A excluded from the timed region exactly like
  // serving (plans pack once at compile).
  constexpr std::int64_t kDim = 192;
  std::vector<std::int8_t> a(static_cast<std::size_t>(kDim * kDim), 3);
  std::vector<std::uint8_t> b(static_cast<std::size_t>(kDim * kDim), 5);
  std::vector<std::int32_t> c(static_cast<std::size_t>(kDim * kDim), 0);
  const PackedGemmAS8 packed = pack_gemm_a_s8(kDim, kDim, a.data(), kDim, 1);
  const double ops = 2.0 * kDim * kDim * kDim;
  gemm_prepacked_s8u8(packed, kDim, b.data(), kDim, 0, c.data(), kDim);
  double best_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    gemm_prepacked_s8u8(packed, kDim, b.data(), kDim, 0, c.data(), kDim);
    best_s = std::min(
        best_s, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return ops / best_s / 1e9;
}

HostCalibration host_calibration() {
  std::lock_guard<std::mutex> lock(calibration_mutex());
  std::optional<HostCalibration>& slot = calibration_slot();
  if (!slot.has_value()) {
    HostCalibration cal;
    cal.gflops = env_positive("TDC_HOST_GFLOPS", &cal.gflops_from_env);
    cal.gbs = env_positive("TDC_HOST_GBS", &cal.gbs_from_env);
    cal.s8_gops = env_positive("TDC_HOST_S8_GOPS", &cal.s8_from_env);
    if (!cal.gflops_from_env) {
      cal.gflops = measure_gemm_gflops();
    }
    if (!cal.gbs_from_env) {
      cal.gbs = measure_stream_gbs();
    }
    if (!cal.s8_from_env) {
      cal.s8_gops = measure_gemm_s8_gops();
    }
    slot = cal;
  }
  return *slot;
}

void reset_host_calibration() {
  std::lock_guard<std::mutex> lock(calibration_mutex());
  calibration_slot().reset();
}

}  // namespace tdc
