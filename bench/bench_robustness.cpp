// Robustness overhead benchmark: the fault-tolerance guards this library
// compiles in unconditionally — fault_injected() queries, deadline polls at
// op and GEMM-band boundaries, the finite-screen branch — must be free when
// nothing is armed. This bench serves ResNet-18 through an InferenceSession
// and compares, interleaved sample for sample:
//
//   disarmed   plain run(): every guard present, nothing armed (the
//              production steady state);
//   deadline   run() under a generous armed Deadline: every poll now also
//              reads the clock — strictly more work than disarmed;
//   allocguard run() with the DenyAllocGuard armed: every operator new now
//              takes the thread-local depth test, and the guard rides into
//              the pool workers with each region;
//   screened   run() with TDC_CHECK_FINITE screening on (informational:
//              screening scans every activation element, so it is opt-in
//              and priced separately, not part of the <1% budget).
//
// The enforced bars are deadline/disarmed < 1.01 and allocguard/disarmed
// < 1.01: if even the *armed* configurations stay under 1%, the disarmed
// fast paths (one relaxed atomic load, one thread-local test) are a
// fortiori inside the budget. Emits BENCH_robustness.json; CI runs this
// binary — once default and once with TDC_ALLOC_GUARD=1 — and fails on
// regression.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/alloc_guard.h"
#include "common/check.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/graph_plan.h"
#include "exec/microbench.h"
#include "nn/models.h"

namespace {

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

}  // namespace

int main() {
  using namespace tdc;
  const DeviceSpec device = make_a100();
  const ModelSpec model = make_resnet18();
  const auto weights = random_model_weights(model, 20230225);

  CodesignOptions cd_opts;
  cd_opts.budget = 0.65;
  const CodesignResult codesign =
      run_codesign(device, model.decomposable_conv_shapes(), cd_opts);

  host_calibration();  // once-per-process, outside every timer
  SessionOptions options;
  InferenceSession session = InferenceSession::compile(
      device, model, weights, codesign.layers, options);

  Rng rng(20230803);
  const OpShape& in = session.input_shape();
  const OpShape& out = session.output_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);
  Tensor y({out.c, out.h, out.w});
  std::vector<float> ws(
      static_cast<std::size_t>(session.workspace_bytes() / sizeof(float)));

  fault_disarm_all();
  set_check_finite(false);
  const Deadline generous = Deadline::after(3600.0);

  // Warm-up: packed weights, page faults, frequency.
  for (int i = 0; i < 3; ++i) {
    session.run(x, &y, ws);
  }

  // Interleaved A/B/C sampling so drift (thermal, scheduler) hits every
  // variant equally; min-of-samples is the noise-robust statistic the bar
  // uses, medians are reported alongside.
  constexpr int kSamples = 40;
  std::vector<double> disarmed_s, deadline_s, allocguard_s, screened_s;
  disarmed_s.reserve(kSamples);
  deadline_s.reserve(kSamples);
  allocguard_s.reserve(kSamples);
  screened_s.reserve(kSamples);
  const bool alloc_guard_was_on = alloc_guard_enabled();
  for (int i = 0; i < kSamples; ++i) {
    set_alloc_guard(false);
    auto t0 = Clock::now();
    session.run(x, &y, ws);
    disarmed_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());

    t0 = Clock::now();
    session.run(x, &y, ws, generous);
    deadline_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());

    set_alloc_guard(true);
    t0 = Clock::now();
    session.run(x, &y, ws);
    allocguard_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    set_alloc_guard(false);

    set_check_finite(true);
    t0 = Clock::now();
    session.run(x, &y, ws);
    screened_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    set_check_finite(false);
  }
  set_alloc_guard(alloc_guard_was_on);

  const double disarmed_min = min_of(disarmed_s);
  const double deadline_min = min_of(deadline_s);
  const double allocguard_min = min_of(allocguard_s);
  const double screened_min = min_of(screened_s);
  const double guard_ratio = deadline_min / disarmed_min;
  const double alloc_ratio = allocguard_min / disarmed_min;
  const ParallelStats pstats = parallel_stats();

  bench::print_title(
      "Robustness guards — ResNet-18 session serving, guards disarmed vs "
      "armed (" + std::to_string(session.num_ops()) + " ops in " +
      std::to_string(session.num_steps()) + " steps)");
  std::printf("disarmed   min %8sms   median %8sms   (production steady "
              "state)\n",
              bench::ms(disarmed_min).c_str(),
              bench::ms(median(disarmed_s)).c_str());
  std::printf("deadline   min %8sms   median %8sms   ratio %.4f   "
              "(armed generous budget; bar < 1.01)\n",
              bench::ms(deadline_min).c_str(),
              bench::ms(median(deadline_s)).c_str(), guard_ratio);
  std::printf("allocguard min %8sms   median %8sms   ratio %.4f   "
              "(DenyAllocGuard armed; bar < 1.01)\n",
              bench::ms(allocguard_min).c_str(),
              bench::ms(median(allocguard_s)).c_str(), alloc_ratio);
  std::printf("screened   min %8sms   median %8sms   ratio %.4f   "
              "(TDC_CHECK_FINITE on; informational, opt-in)\n",
              bench::ms(screened_min).c_str(),
              bench::ms(median(screened_s)).c_str(),
              screened_min / disarmed_min);
  std::printf("runtime    pool regions %lld, inline %lld, serial fallbacks "
              "%lld\n",
              static_cast<long long>(pstats.pool_regions),
              static_cast<long long>(pstats.inline_regions),
              static_cast<long long>(pstats.serial_fallbacks));
  std::printf("threads: %d (override with TDC_NUM_THREADS)\n", num_threads());

  FILE* json = std::fopen("BENCH_robustness.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_robustness.json for writing\n");
    return 1;
  }
  std::fprintf(
      json,
      "{\n  \"bench\": \"robustness\",\n  \"model\": \"resnet18\",\n"
      "  \"threads\": %d,\n  \"samples\": %d,\n"
      "  \"disarmed\": {\"min_ms\": %.4f, \"median_ms\": %.4f},\n"
      "  \"armed_deadline\": {\"min_ms\": %.4f, \"median_ms\": %.4f},\n"
      "  \"armed_alloc_guard\": {\"min_ms\": %.4f, \"median_ms\": %.4f},\n"
      "  \"finite_screen\": {\"min_ms\": %.4f, \"median_ms\": %.4f},\n"
      "  \"guard_overhead_ratio\": %.5f,\n"
      "  \"alloc_guard_overhead_ratio\": %.5f,\n"
      "  \"guard_overhead_bar\": 1.01,\n"
      "  \"parallel_stats\": {\"pool_regions\": %lld, "
      "\"inline_regions\": %lld, \"serial_fallbacks\": %lld}\n}\n",
      num_threads(), kSamples, disarmed_min * 1e3, median(disarmed_s) * 1e3,
      deadline_min * 1e3, median(deadline_s) * 1e3, allocguard_min * 1e3,
      median(allocguard_s) * 1e3, screened_min * 1e3,
      median(screened_s) * 1e3, guard_ratio, alloc_ratio, 1.01,
      static_cast<long long>(pstats.pool_regions),
      static_cast<long long>(pstats.inline_regions),
      static_cast<long long>(pstats.serial_fallbacks));
  std::fclose(json);
  std::printf("wrote BENCH_robustness.json\n");

  // Regression bars (CI runs this binary): an armed deadline and an armed
  // allocation guard — each strictly more guard work than the disarmed
  // steady state — must cost under 1% of the serving latency. A failure
  // means a poll landed on a hot inner loop or a fast path picked up a
  // lock, not machine noise: the min-of-40 interleaved statistic holds the
  // measured ratios near 1.000.
  if (guard_ratio >= 1.01) {
    std::fprintf(stderr,
                 "FAIL: armed-deadline serving %.4fx the disarmed latency "
                 "(bar: < 1.01)\n",
                 guard_ratio);
    return 1;
  }
  if (alloc_ratio >= 1.01) {
    std::fprintf(stderr,
                 "FAIL: alloc-guard-armed serving %.4fx the disarmed latency "
                 "(bar: < 1.01)\n",
                 alloc_ratio);
    return 1;
  }
  return 0;
}
