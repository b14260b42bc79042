// Fault-injection registry: named failure points, compiled in always.
//
// Serving-grade fault tolerance cannot be tested by faults that only exist in
// a special build: the guards that recover from allocation failure, corrupt
// caches and over-budget runs must be the exact code production executes.
// Each failure point is a named call site that asks the registry whether to
// misbehave right now:
//
//   if (fault_injected("exec.compile_alloc")) {
//     throw std::bad_alloc();   // the call site owns the failure mode
//   }
//
// Disarmed (the production steady state) the query is one relaxed atomic
// load — no lock, no map lookup, no branch history pollution; the
// bench_robustness CI step enforces the <1% end-to-end budget. Points are
// armed either programmatically (tests) or through the TDC_FAULT environment
// variable, read once at first query:
//
//   TDC_FAULT="point[=param][:skip[:count]][;point...]"
//
// e.g. TDC_FAULT="exec.op_delay=50" arms the op-delay point with a 50 ms
// parameter, TDC_FAULT="exec.compile_alloc:2:1" fires once after skipping
// two hits. Env-armed points default to count=1 (fire once) so an armed
// process degrades one operation, not every operation.
//
// Failure points currently wired (see tests/test_fault_injection.cpp):
//   exec.compile_alloc   plan/session compilation throws std::bad_alloc
//   tucker.decompose_alloc a Tucker decomposition throws std::bad_alloc
//   quantize.calibrate_alloc a calibration sample job throws std::bad_alloc
//   exec.run_alloc       convenience-workspace allocation throws bad_alloc
//   exec.op_nan          a graph step's output is NaN-poisoned after the run
//   exec.op_delay        a graph step boundary sleeps `param` ms (deadline
//                        tests)
//   autotune.corrupt_save the autotune cache file is written corrupted
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace tdc {

/// Arming parameters of one failure point.
struct FaultSpec {
  std::int64_t skip = 0;    ///< hits to ignore before the first fire
  std::int64_t count = -1;  ///< fires before auto-disarm (-1 = unlimited)
  double param = 0.0;       ///< site-specific knob (e.g. delay in ms)
};

/// Arms `point`; replaces any previous arming (counters reset).
void fault_arm(const std::string& point, const FaultSpec& spec = {});

/// Disarms `point` (keeps its fire statistics until fault_disarm_all).
void fault_disarm(const std::string& point);

/// Disarms everything and clears statistics; also forgets the TDC_FAULT
/// parse so the next query re-reads the environment.
void fault_disarm_all();

/// True when `point` is armed and has fires remaining.
bool fault_armed(const std::string& point);

/// Times `point` has fired since the last fault_disarm_all().
std::int64_t fault_fire_count(const std::string& point);

namespace detail {

// Number of armed points; -1 until TDC_FAULT has been parsed. The disarmed
// fast path is a single relaxed load of this counter.
extern std::atomic<int> g_armed_faults;

bool fault_fire_slow(std::string_view point, double* param);

}  // namespace detail

/// The failure-point query. Returns true when the site should fail now; a
/// site with a parameter (delay duration, corruption length) receives it
/// through `param` when non-null.
inline bool fault_injected(std::string_view point, double* param = nullptr) {
  if (detail::g_armed_faults.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return detail::fault_fire_slow(point, param);
}

}  // namespace tdc
