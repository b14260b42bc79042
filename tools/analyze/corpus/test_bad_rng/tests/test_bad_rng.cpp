// Corpus: determinism rule — every randomness source that breaks
// bit-replayability across runs is a finding, in tests too.
#include <cstdlib>
#include <ctime>
#include <random>

namespace {

int noise() {
  std::srand(static_cast<unsigned>(time(nullptr)));        // expect-analyze: deterministic-rng
  std::mt19937 gen(std::random_device{}());                // expect-analyze: deterministic-rng
  return std::rand() + static_cast<int>(gen());            // expect-analyze: deterministic-rng
}

// Naming a type in prose is fine; only code positions count:
// std::mt19937 mentioned in a comment is not a finding.
int runtime_ms = noise();

}  // namespace

// The src/-only rules do not apply under tests/: a raw fixture buffer and a
// file-scope counter in a test are not findings.
int g_fixture_calls = 0;
int* fixture_buffer() { return new int[4]; }
