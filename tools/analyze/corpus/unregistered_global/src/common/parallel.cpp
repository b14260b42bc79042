// Reuses the real src/common/parallel.cpp path: its REGISTERED_SINGLETONS
// names pass; g_registered_only and g_rogue_state are findings.
#include <atomic>
#include <memory>
#include <mutex>

namespace tdc {
namespace {

thread_local bool t_in_parallel = false;
std::mutex g_pool_mutex;
std::atomic<int> g_num_threads{0};
std::atomic<long> g_pool_regions{0};

int snapshot() {
  (void)t_in_parallel;
  std::unique_lock<std::mutex> lock(g_pool_mutex);
  return g_num_threads.load() + static_cast<int>(g_pool_regions.load());
}

int g_registered_only = 0;                                 // expect-analyze: unregistered-singleton

}  // namespace

struct PoolStub {};

std::unique_ptr<PoolStub> g_pool;

std::atomic<int> g_rogue_state{0};  // expect-analyze: unregistered-singleton

// Negative: constants are not mutable state.
constexpr int g_pool_default_threads = 4;

}  // namespace tdc
