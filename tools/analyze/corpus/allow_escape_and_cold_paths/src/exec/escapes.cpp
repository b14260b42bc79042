// The escape hatch and the cold-path carve-outs, side by side with a
// violation that has no escape.
//
// Negatives: TDC_ANALYZE_ALLOW(run-path-lock) waives the rule for its
// enclosing function; TDC_CHECK* message arguments build only on the failure
// path; an `if (fault_injected(...))` block is a test-only fault plant;
// [[noreturn]] error sinks are cold. Positive: the same lock acquisition in
// a function with no waiver.
// The per-file rules still read cold code: the sink's bare
// std::runtime_error is a check-macros finding, and the fault plant's new[]
// takes a line escape.
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/annotations.h"
#include "common/check.h"
#include "common/fault.h"

namespace tdc {

[[noreturn]] void fail_request(std::int64_t id) {
  throw std::runtime_error("request failed: " + std::to_string(id));  // expect-analyze: check-macros
}

std::mutex g_stats_lock_mutex;  // expect-analyze: unregistered-singleton

void record_stats_unsanctioned() {
  std::lock_guard<std::mutex> lock(g_stats_lock_mutex);  // expect-analyze: run-path-lock
}

void record_stats_sanctioned() {
  // One-time lazy initialization: bounded, never on the steady-state path.
  TDC_ANALYZE_ALLOW(run-path-lock);
  std::lock_guard<std::mutex> lock(g_stats_lock_mutex);
}

TDC_RUN_PATH float serve(std::int64_t id, float x) {
  TDC_CHECK_MSG(x >= 0.0f, "negative input for request " + std::to_string(id));
  if (fault_injected("corpus.serve_alloc")) {
    float* plant = new float[4];  // tdc-analyze: allow(raw-new-array)
    delete[] plant;
  }
  if (x > 1e30f) {
    fail_request(id);
  }
  record_stats_sanctioned();
  record_stats_unsanctioned();
  return x;
}

}  // namespace tdc
