// Corpus: mutable file-scope state must be in the registered-singleton
// table. Unregistered g_*/t_* globals are findings; const/constexpr and
// function-local statics are exempt.
#include <atomic>
#include <mutex>

namespace tdc {
namespace {

std::atomic<int> g_rogue_counter{0};                       // expect-analyze: unregistered-singleton
thread_local bool t_rogue_flag = false;                    // expect-analyze: unregistered-singleton

constexpr int g_not_mutable = 7;       // const: exempt
const char* const g_name = "tdc";      // const: exempt

int helper() {
  static std::mutex g_local_mutex;     // function-local: exempt
  (void)g_local_mutex;
  return g_rogue_counter.load() + g_not_mutable + (t_rogue_flag ? 1 : 0) +
         static_cast<int>(g_name[0]);
}

int g_unused = helper();                                   // expect-analyze: unregistered-singleton

}  // namespace
}  // namespace tdc
