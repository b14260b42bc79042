// Corpus: raw allocation and error-handling violations in a library file.
// Each violating line declares the expected rule inline; --self-test checks
// the analyzer reports exactly these (rule, line) pairs and nothing else.
#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace tdc {
namespace {

float* make_buffer(int n) {
  float* p = new float[16];                                // expect-analyze: raw-new-array
  void* q = malloc(static_cast<std::size_t>(n));           // expect-analyze: raw-malloc
  free(q);                                                 // expect-analyze: raw-malloc
  assert(n > 0);                                           // expect-analyze: check-macros
  if (n < 0) {
    throw std::runtime_error("bad n");                     // expect-analyze: check-macros
  }
  return p;
}

void loop(int n) {
#pragma omp parallel for                                   // expect-analyze: no-openmp
  for (int i = 0; i < n; ++i) {
    make_buffer(i);
  }
}

// A new[] spelled inside a comment or string must NOT be reported:
// new float[16] is fine here.
const char* kDoc = "new float[16] in a string literal";

}  // namespace
}  // namespace tdc
