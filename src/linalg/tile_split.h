// Chunk grid of one GEMM region, shared by the fp32 and int8 engines
// (linalg/gemm.cpp, linalg/gemm_s8.cpp): C is cut into at most
// region_width() tile-aligned rectangles, each run whole by one thread.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/parallel.h"

namespace tdc::detail {

/// Multiply-adds below which one more chunk of a GEMM region is not worth a
/// worker wake-up.
inline constexpr std::int64_t kMinChunkMacs = std::int64_t{1} << 16;

/// `rows` × `cols` rectangles of C whose edges sit on the MR×NR tile grid.
struct TileSplit {
  std::int64_t rows = 1;
  std::int64_t cols = 1;
};

/// Balanced split of an M×N×K GEMM's MR×NR tiles over at most `width`
/// chunks: the grid whose largest chunk holds the fewest tiles, preferring
/// column splits on a tie (a column chunk packs only its own B slivers,
/// while every row chunk packs all of them). Width 1 gives one chunk.
inline TileSplit split_tiles(std::int64_t m, std::int64_t n, std::int64_t k,
                             std::int64_t mr, std::int64_t nr, int width) {
  const std::int64_t row_slivers = divup(m, mr);
  const std::int64_t col_slivers = divup(n, nr);
  const std::int64_t chunks = std::clamp<std::int64_t>(
      m * n * std::max<std::int64_t>(k, 1) / kMinChunkMacs, 1, width);
  TileSplit best;
  std::int64_t best_tiles = row_slivers * col_slivers;
  for (std::int64_t cols = std::min(chunks, col_slivers); cols >= 1; --cols) {
    const std::int64_t rows = std::min(chunks / cols, row_slivers);
    const std::int64_t tiles = divup(row_slivers, rows) *
                               divup(col_slivers, cols);
    if (tiles < best_tiles) {
      best = {rows, cols};
      best_tiles = tiles;
    }
  }
  return best;
}

}  // namespace tdc::detail
