// Positives: I/O and nondeterminism reachable from a run-path root. Results
// must be bit-identical across runs; diagnostics belong off the hot path.
// Negative: steady_clock is the sanctioned monotonic scheduling clock.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "common/annotations.h"

namespace tdc {

float jitter_scale() {
  std::random_device rd;  // expect-analyze: run-path-nondet, deterministic-rng
  return static_cast<float>(rd()) * 1e-9f;
}

void trace_request(std::int64_t id) {
  printf("serving %lld\n", static_cast<long long>(id));  // expect-analyze: run-path-io
}

std::int64_t monotonic_ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

TDC_RUN_PATH float serve(std::int64_t id) {
  trace_request(id);
  const float noise = jitter_scale() + static_cast<float>(rand());  // expect-analyze: run-path-nondet
  return noise + static_cast<float>(monotonic_ticks() & 1);
}

}  // namespace tdc
