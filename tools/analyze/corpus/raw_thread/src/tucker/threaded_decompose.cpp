// Corpus: raw-thread — a private thread outside the shared pool is a
// finding wherever it sits in src/, reachable or not: it bypasses the arena
// caps, deadline propagation, exception capture and ParallelStats.
#include <future>
#include <thread>
#include <vector>

namespace tdc {

void decompose_one(int layer);

void decompose_on_threads(int layers) {
  std::vector<std::thread> workers;                        // expect-analyze: raw-thread
  for (int i = 0; i < layers; ++i) {
    workers.emplace_back(decompose_one, i);
  }
  for (auto& w : workers) {
    w.join();
  }
}

void decompose_async(int layer) {
  auto done = std::async(std::launch::async, decompose_one, layer);  // expect-analyze: raw-thread
  done.wait();
  std::jthread helper(decompose_one, layer + 1);           // expect-analyze: raw-thread
}

// Negatives: std::this_thread is not a thread, and naming std::thread in a
// comment or a string is not code.
void pause_briefly() {
  std::this_thread::yield();
  const char* note = "std::thread is banned here";
  (void)note;
}

}  // namespace tdc
