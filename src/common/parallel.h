// Shared CPU parallel runtime.
//
// A persistent thread pool behind ATen-style parallel_for / parallel_reduce
// primitives. Every multi-threaded hot path in the library (GEMM, the
// convolution executors, the TDC core kernel interpreter, autograd batching)
// funnels through this header instead of carrying its own OpenMP pragmas, so
// thread count, grain-size policy and nested-parallelism behavior are
// consistent everywhere.
//
// Thread count resolution order:
//   1. set_num_threads(n) — explicit programmatic override;
//   2. TDC_NUM_THREADS    — environment override, read once at first use;
//   3. std::thread::hardware_concurrency().
//
// Chunks are split statically, at most one per thread that will serve the
// region (region_width(): the intra-op width, capped by the thread count); a
// call from inside a parallel region runs serially (no nested fan-out).
// Concurrent *top-level* callers are served by task arenas (TBB-style, the
// ATen Parallel.h idiom): the persistent pool admits up to
// arena_config().inter_op simultaneous fork/join regions, each with a
// bounded share of the workers (intra_op - 1 assisting workers plus the
// calling thread), and workers share themselves across the active regions
// chunk by chunk. Only when every arena slot is taken does an extra
// caller degrade to inline serial execution (counted in parallel_stats()).
// Exceptions thrown by the body are captured and rethrown on the calling
// thread; once a chunk has thrown, no further chunk of its region starts.
//
// Regions versus jobs. A region (parallel_for, parallel_reduce) splits one
// loop into at most region_width() static chunks: the threads one caller is
// granted. A job region (parallel_jobs) runs n independent, whole units of
// work — one Tucker decomposition, one calibration sample — each serially,
// handed out one at a time from the region's chunk cursor to up to
// job_width() = min(num_threads(), inter_op × intra_op) threads: the
// capacity the arena config grants to inter_op concurrent callers. A
// deployment that serves at width 1 (one replica per core) thereby still
// builds on every core, without touching the process-wide arena config.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/function_ref.h"

namespace tdc {

/// Current worker count (>= 1).
int num_threads();

/// Override the worker count (clamped to >= 1). Takes effect on the next
/// parallel_for; safe to call between parallel regions only.
void set_num_threads(int n);

/// True when called from inside a parallel_for body.
bool in_parallel_region();

/// Hard bound on simultaneously active fork/join regions (arena slots the
/// pool carries; inter_op is clamped to it).
inline constexpr int kMaxArenas = 8;

/// Inter-op/intra-op split of the shared pool (the ATen/TBB task-arena
/// model). `inter_op` bounds how many top-level fork/join regions may run
/// concurrently; `intra_op` bounds the threads serving any one region (the
/// calling thread plus up to intra_op - 1 assisting pool workers). The
/// product may exceed num_threads(): workers are shared, the caps only bound
/// each region's share. Resolution order per field: set_arena_config,
/// TDC_INTER_OP / TDC_INTRA_OP (strictly parsed, common/env.h), defaults
/// (inter_op = kMaxArenas; intra_op = 0 meaning "track num_threads()").
struct ArenaConfig {
  int inter_op = 0;  ///< 0 = default (kMaxArenas)
  int intra_op = 0;  ///< 0 = default (num_threads())
};

/// The resolved configuration (fields never 0; intra_op reported as the
/// current effective width).
ArenaConfig arena_config();

/// Override the arena split; 0-valued fields keep their default resolution.
/// Takes effect at the next region admission — safe to call at any time.
void set_arena_config(const ArenaConfig& config);

/// Process-wide observability counters of the shared runtime. The serving
/// tier reads these to see when it is oversubscribing the pool: the arenas
/// serve up to inter_op concurrent top-level fork/join regions, and a caller
/// that arrives when every slot is taken degrades to inline serial
/// execution — correct, but one core. That degradation is counted (and noted
/// once per process on stderr) so a multi-client deployment has a baseline;
/// a serving fleet sized within the arena bound should see
/// serial_fallbacks stay flat.
struct ParallelStats {
  std::int64_t pool_regions = 0;      ///< regions fanned out on the pool
  std::int64_t inline_regions = 0;    ///< regions inline by policy (one
                                      ///  chunk: width 1 or a short range)
  std::int64_t serial_fallbacks = 0;  ///< regions inline because every arena
                                      ///  slot held another caller's region
  std::int64_t arena_regions = 0;     ///< pool regions that ran concurrently
                                      ///  with at least one other region
  std::int64_t peak_concurrent_regions = 0;  ///< high-water mark of
                                             ///  simultaneously active regions
};

/// Snapshot of the counters (monotonic since process start).
ParallelStats parallel_stats();

/// Threads that would serve a region opened here: 1 inside a parallel
/// region (nested calls run inline), else min(num_threads(),
/// arena_config().intra_op). parallel_for and parallel_reduce cut at most
/// this many chunks, and a width-1 region runs inline on the caller without
/// touching the pool (counted as an inline region). Callers that partition
/// work themselves (the GEMM's tile split) size their chunks with it too.
int region_width();

/// Threads that would serve a job region opened here (parallel_jobs): 1
/// inside a parallel region, else min(num_threads(), arena_config().inter_op
/// × arena_config().intra_op). At the defaults (intra_op tracking the thread
/// count) this equals region_width(); it exceeds it when intra_op is set
/// below the thread count, e.g. a fleet of width-1 replicas.
int job_width();

/// Runs fn(j) exactly once for each j in [0, n) and blocks until all have
/// finished. Jobs go out in index order (put the longest first) to at most
/// job_width() threads, the caller included, so a descheduled thread simply
/// takes fewer jobs. Every job runs serially: parallel loops inside it run
/// inline, so a job's result never depends on the width. With one job, at
/// width 1 or inside a region the jobs run inline on the caller, in order.
/// When a job throws, no further job starts; the first exception is
/// rethrown on the caller once the jobs in flight have finished. The
/// caller's deadline and armed DenyAllocGuard ride into the jobs as they do
/// into parallel_for chunks. Opening the region performs no allocation.
void parallel_jobs(std::int64_t n, FunctionRef<void(std::int64_t)> fn);

/// Default minimum iterations per chunk before a loop is worth splitting.
inline constexpr std::int64_t kDefaultGrainSize = 1;

namespace detail {

inline std::int64_t divup(std::int64_t x, std::int64_t y) {
  return (x + y - 1) / y;
}

/// Runs fn(chunk_id) for chunk_id in [0, num_chunks) across the pool,
/// including the calling thread; blocks until every chunk finished. Takes a
/// non-owning FunctionRef — opening a region performs no heap allocation, so
/// parallel loops are legal inside DenyAllocGuard-protected serving paths.
void run_chunked(std::int64_t num_chunks, FunctionRef<void(std::int64_t)> fn);

}  // namespace detail

/// Calls f(sub_begin, sub_end) over a static partition of [begin, end) into
/// at most region_width() chunks. Ranges no longer than grain_size, calls
/// at width 1 and calls from inside another parallel region run inline on
/// the caller.
template <class F>
void parallel_for(std::int64_t begin, std::int64_t end,
                  std::int64_t grain_size, const F& f) {
  if (begin >= end) {
    return;
  }
  // The thread-local nested-region test comes first: it keeps nested calls
  // (every GEMM inside an already-parallel loop) off the runtime's shared
  // state entirely.
  if (in_parallel_region()) {
    f(begin, end);
    return;
  }
  const std::int64_t range = end - begin;
  const std::int64_t grain = std::max<std::int64_t>(grain_size, 1);
  if (range <= grain) {
    f(begin, end);
    return;
  }
  const std::int64_t chunks =
      std::min<std::int64_t>(region_width(), detail::divup(range, grain));
  const std::int64_t chunk_size = detail::divup(range, chunks);
  detail::run_chunked(chunks, [&](std::int64_t chunk) {
    const std::int64_t b = begin + chunk * chunk_size;
    const std::int64_t e = std::min(b + chunk_size, end);
    if (b < e) {
      f(b, e);
    }
  });
}

/// Reduction over [begin, end): acc = f(sub_begin, sub_end, ident) per chunk,
/// then left-fold of the partials with combine. The fold order is fixed by
/// chunk index, so results are deterministic for a given thread count.
template <class T, class F, class Combine>
T parallel_reduce(std::int64_t begin, std::int64_t end,
                  std::int64_t grain_size, T ident, const F& f,
                  const Combine& combine) {
  if (begin >= end) {
    return ident;
  }
  if (in_parallel_region()) {
    return f(begin, end, ident);
  }
  const std::int64_t range = end - begin;
  const std::int64_t grain = std::max<std::int64_t>(grain_size, 1);
  if (range <= grain) {
    return f(begin, end, ident);
  }
  const std::int64_t chunks =
      std::min<std::int64_t>(region_width(), detail::divup(range, grain));
  if (chunks == 1) {
    T acc = ident;
    detail::run_chunked(1, [&](std::int64_t) { acc = f(begin, end, ident); });
    return acc;
  }
  const std::int64_t chunk_size = detail::divup(range, chunks);
  std::vector<T> partial(static_cast<std::size_t>(chunks), ident);
  detail::run_chunked(chunks, [&](std::int64_t chunk) {
    const std::int64_t b = begin + chunk * chunk_size;
    const std::int64_t e = std::min(b + chunk_size, end);
    if (b < e) {
      partial[static_cast<std::size_t>(chunk)] = f(b, e, ident);
    }
  });
  T acc = ident;
  for (const T& p : partial) {
    acc = combine(acc, p);
  }
  return acc;
}

}  // namespace tdc
