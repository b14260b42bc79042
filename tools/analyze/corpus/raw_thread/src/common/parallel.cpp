// Negative: the real src/common/parallel.cpp path owns the pool's workers,
// so raw threads there are not findings.
#include <thread>
#include <vector>

namespace tdc {

struct WorkerSet {
  std::vector<std::thread> workers;
};

}  // namespace tdc
