// Corpus: a clean file — idiomatic repo code produces zero findings.
#include <cstdint>
#include <vector>

namespace tdc {
namespace {

constexpr std::int64_t kTile = 64;

std::int64_t round_up(std::int64_t n) {
  return (n + kTile - 1) / kTile * kTile;
}

std::vector<float> scratch(std::int64_t n) {
  // Growth calls are fine off the run path (no TDC_RUN_PATH root here).
  std::vector<float> v;
  v.resize(static_cast<std::size_t>(round_up(n)));
  return v;
}

}  // namespace
}  // namespace tdc
