// Positive: a definition that follows a preprocessor conditional is still a
// definition. The definition opened by an #else and the one opened right
// after an #endif/#if join the run-path reachable set, so the growth in
// each is reported. The inactive branch holds no finding, so a frontend
// that reads one branch and one that reads both agree.
#include <vector>

#include "common/annotations.h"

namespace tdc {
namespace {

#if defined(TDC_CORPUS_NEVER_DEFINED)
void kernel(std::vector<float>* acc, float v) { (*acc)[0] = v; }
#else
void kernel(std::vector<float>* acc, float v) {
  acc->push_back(v);  // expect-analyze: run-path-alloc
}
#endif

#if !defined(TDC_CORPUS_NEVER_DEFINED)
void kernel_pair(std::vector<float>* acc, float v) {
  acc->resize(32, v);  // expect-analyze: run-path-alloc
}
#endif

}  // namespace

TDC_RUN_PATH void drive(std::vector<float>* acc, float v) {
  kernel(acc, v);
  kernel_pair(acc, v);
}

}  // namespace tdc
