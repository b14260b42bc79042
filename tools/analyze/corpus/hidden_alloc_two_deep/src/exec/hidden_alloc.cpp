// Positive: a heap allocation hiding two calls below a run-path root must
// still be reported — the whole point of reachability over file lists.
#include <vector>

#include "common/alloc_guard.h"
#include "common/annotations.h"

namespace tdc {

struct Accumulator {
  std::vector<float> slots_;

  void grow_slots(float v) {
    slots_.push_back(v);  // expect-analyze: run-path-alloc
  }

  void record(float v) { grow_slots(v); }
};

// Negative: default construction of a vector does not allocate, and growth
// under an AllowAllocScope is the sanctioned warm-up pattern, on the run path
// too. The scope ends with its block: growth after it is a finding.
void warm_up(Accumulator& acc, float v) {
  {
    AllowAllocScope warmup;
    acc.slots_.reserve(64);
  }
  acc.slots_.push_back(v);  // expect-analyze: run-path-alloc
}

// Negative: off the run path (plan-compile time) growth is not checked.
void plan_slots(Accumulator& acc) { acc.slots_.push_back(0.0f); }

TDC_RUN_PATH void serve_request(Accumulator& acc, float v) {
  warm_up(acc, v);
  acc.record(v);
}

}  // namespace tdc
