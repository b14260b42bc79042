// Corpus: the escape hatch. Same-line and line-above allow() comments
// silence exactly the named rule; nothing in this file is a finding.
#include <cstdlib>

namespace tdc {
namespace {

void planted_fault() {
  // A deliberate raw allocation (fault-injection plant):
  float* p = new float[16];  // tdc-analyze: allow(raw-new-array)
  delete[] p;
  // tdc-analyze: allow(raw-malloc)
  void* q = malloc(8);
  // tdc-analyze: allow(raw-malloc)
  free(q);
}

// Multiple rules in one allow():
// tdc-analyze: allow(raw-new-array, check-macros)
int* both() { return new int[4]; }

}  // namespace
}  // namespace tdc
