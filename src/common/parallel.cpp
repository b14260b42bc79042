#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/alloc_guard.h"
#include "common/annotations.h"
#include "common/deadline.h"
#include "common/env.h"

namespace tdc {

namespace {

thread_local bool t_in_parallel = false;

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int env_num_threads() {
  // Strictly parsed: TDC_NUM_THREADS=abc or =8x warns once and falls back to
  // hardware concurrency instead of being silently misread.
  const auto v = env_int("TDC_NUM_THREADS", 1, 4096);
  return v.has_value() ? static_cast<int>(*v) : 0;
}

int initial_num_threads() {
  const int env = env_num_threads();
  return env >= 1 ? env : hardware_threads();
}

std::atomic<std::int64_t> g_pool_regions{0};
std::atomic<std::int64_t> g_inline_regions{0};
std::atomic<std::int64_t> g_serial_fallbacks{0};
std::atomic<std::int64_t> g_arena_regions{0};
std::atomic<std::int64_t> g_peak_regions{0};
std::atomic<bool> g_fallback_noted{false};

// Region-start accounting, called by the pool outside its mutex.
void note_region_started(bool shared, int concurrent) {
  g_pool_regions.fetch_add(1, std::memory_order_relaxed);
  if (shared) {
    g_arena_regions.fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t peak = g_peak_regions.load(std::memory_order_relaxed);
  while (concurrent > peak &&
         !g_peak_regions.compare_exchange_weak(peak, concurrent,
                                               std::memory_order_relaxed)) {
  }
}

// Task-arena pool (the ATen Parallel.h / TBB arena idiom, PR 9): one
// persistent set of workers serves up to kMaxArenas concurrent top-level
// fork/join regions. Each region is an arena slot holding its function
// object, an atomic chunk cursor, and completion accounting; the calling
// thread always drains its own region, and idle workers pick any active
// region whose assisting-worker count is below the region's intra-op share.
// Workers re-select a region per drain, so they redistribute across arenas
// as regions open and close. run() does not return until every chunk of its
// region has executed AND no worker is still inside it, so the function
// object can never dangle.
class ThreadPool {
 public:
  explicit ThreadPool(int workers) {
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
  }

  /// Runs the region on an arena slot; the caller participates and up to
  /// `max_assists` pool workers help. Returns false — having run nothing —
  /// when region admission fails (every slot taken, or more than
  /// `max_regions` regions active): the caller runs inline instead.
  TDC_RUN_PATH bool run(std::int64_t num_chunks, int max_regions,
                        int max_assists,
                        FunctionRef<void(std::int64_t)> fn) {
    // The arena admission handoff is the library's sanctioned blocking
    // point on the run path: slot state is published under mutex_ and the
    // join waits on region_done_. TSan-verified.
    TDC_ANALYZE_ALLOW(run-path-lock);
    Region* r = nullptr;
    bool shared = false;
    int concurrent = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (active_regions_ >= max_regions) {
        return false;
      }
      for (Region& slot : regions_) {
        if (!slot.active) {
          r = &slot;
          break;
        }
      }
      if (r == nullptr) {
        return false;
      }
      r->active = true;
      r->fn = &fn;
      r->total_chunks = num_chunks;
      r->next_chunk.store(0, std::memory_order_relaxed);
      r->done_chunks = 0;
      r->assists = 0;
      r->max_assists = max_assists;
      r->first_error = nullptr;
      ++active_regions_;
      shared = active_regions_ > 1;
      concurrent = active_regions_;
    }
    note_region_started(shared, concurrent);
    if (max_assists > 0) {
      work_ready_.notify_all();
    }

    drain(*r, fn);  // the caller is its region's first executor

    std::exception_ptr err;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      region_done_.wait(lock, [r] {
        return r->done_chunks >= r->total_chunks && r->assists == 0;
      });
      err = r->first_error;
      r->first_error = nullptr;
      r->fn = nullptr;
      r->active = false;
      --active_regions_;
    }
    if (err) {
      std::rethrow_exception(err);
    }
    return true;
  }

 private:
  struct Region {
    bool active = false;  ///< slot occupancy, under mutex_
    const FunctionRef<void(std::int64_t)>* fn = nullptr;
    std::int64_t total_chunks = 0;
    std::atomic<std::int64_t> next_chunk{0};  ///< lock-free chunk cursor
    std::int64_t done_chunks = 0;  ///< completed chunks, under mutex_
    int assists = 0;       ///< pool workers inside the region, under mutex_
    int max_assists = 0;   ///< the region's intra-op share (workers)
    std::exception_ptr first_error;  ///< under mutex_
  };

  // True when a pool worker may usefully enter the region. Under mutex_.
  static bool assistable(const Region& r) {
    return r.active && r.assists < r.max_assists &&
           r.next_chunk.load(std::memory_order_relaxed) < r.total_chunks;
  }

  // Pulls chunk indices from one region until its cursor is exhausted.
  // Called outside mutex_; completion is recorded under it.
  TDC_RUN_PATH void drain(Region& r, FunctionRef<void(std::int64_t)> fn) {
    // Completion accounting of the fork/join handoff (see run()).
    TDC_ANALYZE_ALLOW(run-path-lock);
    std::int64_t executed = 0;
    std::exception_ptr error;
    std::int64_t chunk;
    while ((chunk = r.next_chunk.fetch_add(1, std::memory_order_relaxed)) <
           r.total_chunks) {
      t_in_parallel = true;
      try {
        fn(chunk);
      } catch (...) {
        if (!error) {
          error = std::current_exception();
        }
        // No chunk starts after a throw: close the cursor and count the
        // chunks nobody will take as done, so the join still completes.
        const std::int64_t handed_out =
            r.next_chunk.exchange(r.total_chunks, std::memory_order_relaxed);
        executed += std::max<std::int64_t>(r.total_chunks - handed_out, 0);
      }
      t_in_parallel = false;
      ++executed;
    }
    if (executed > 0 || error) {
      std::unique_lock<std::mutex> lock(mutex_);
      r.done_chunks += executed;
      if (error && !r.first_error) {
        r.first_error = error;
      }
      if (r.done_chunks >= r.total_chunks && r.assists == 0) {
        region_done_.notify_all();
      }
    }
  }

  TDC_RUN_PATH void worker_loop(int id) {
    // Workers sleep on work_ready_ between regions; the wait and the
    // assisting-worker bookkeeping are the sanctioned pool blocking point.
    TDC_ANALYZE_ALLOW(run-path-lock);
    for (;;) {
      Region* r = nullptr;
      const FunctionRef<void(std::int64_t)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock, [this] {
          if (stop_) {
            return true;
          }
          for (const Region& slot : regions_) {
            if (assistable(slot)) {
              return true;
            }
          }
          return false;
        });
        if (stop_) {
          return;
        }
        // Scan from a per-worker offset so concurrent regions spread the
        // workers instead of all piling onto slot 0.
        for (int k = 0; k < kMaxArenas; ++k) {
          Region& slot = regions_[(id + k) % kMaxArenas];
          if (assistable(slot)) {
            r = &slot;
            break;
          }
        }
        if (r == nullptr) {
          continue;  // another worker took the last eligible region
        }
        ++r->assists;
        fn = r->fn;
      }
      drain(*r, *fn);
      {
        std::unique_lock<std::mutex> lock(mutex_);
        --r->assists;
        if (r->done_chunks >= r->total_chunks && r->assists == 0) {
          region_done_.notify_all();
        }
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable region_done_;
  std::vector<std::thread> workers_;
  Region regions_[kMaxArenas];
  int active_regions_ = 0;  ///< under mutex_
  bool stop_ = false;
};

std::mutex g_pool_mutex;
// The pool is shared-owned: run_chunked pins its pool for the whole region,
// so a concurrent set_num_threads can swap the global pointer without ever
// destroying a pool mid-region — the old pool dies when its last in-flight
// region finishes.
std::shared_ptr<ThreadPool> g_pool;
std::atomic<int> g_num_threads{0};  // 0 = not yet resolved
std::atomic<int> g_inter_op{0};     // 0 = not yet resolved
std::atomic<int> g_intra_op{-1};    // -1 = not yet resolved; 0 = track
                                    // num_threads()

void note_serial_fallback() {
  // One-shot stderr diagnostic (first fallback only); steady-state runs
  // never reach the fprintf.
  TDC_ANALYZE_ALLOW(run-path-io);
  g_serial_fallbacks.fetch_add(1, std::memory_order_relaxed);
  if (!g_fallback_noted.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "tdc: more concurrent top-level parallel callers than "
                 "arena slots (inter_op=%d) — extra callers run inline "
                 "serial (counted in tdc::parallel_stats())\n",
                 arena_config().inter_op);
  }
}

int resolve_num_threads_locked() {
  int nt = g_num_threads.load(std::memory_order_relaxed);
  if (nt == 0) {
    nt = initial_num_threads();
    g_num_threads.store(nt, std::memory_order_relaxed);
  }
  return nt;
}

int clamp_inter_op(int v) {
  return v < 1 ? 1 : (v > kMaxArenas ? kMaxArenas : v);
}

// Resolved inter-op bound (>= 1). First call reads TDC_INTER_OP strictly.
int resolve_inter_op() {
  int v = g_inter_op.load(std::memory_order_relaxed);
  if (v == 0) {
    const auto env = env_int("TDC_INTER_OP", 1, kMaxArenas);
    v = clamp_inter_op(env.has_value() ? static_cast<int>(*env) : kMaxArenas);
    g_inter_op.store(v, std::memory_order_relaxed);
  }
  return v;
}

// Resolved intra-op width (>= 1): 0 in the stored config means "track
// num_threads()". First call reads TDC_INTRA_OP strictly.
int resolve_intra_op() {
  int v = g_intra_op.load(std::memory_order_relaxed);
  if (v == -1) {
    const auto env = env_int("TDC_INTRA_OP", 1, 4096);
    v = env.has_value() ? static_cast<int>(*env) : 0;
    g_intra_op.store(v, std::memory_order_relaxed);
  }
  return v == 0 ? num_threads() : v;
}

void run_inline(std::int64_t num_chunks, FunctionRef<void(std::int64_t)> fn) {
  t_in_parallel = true;
  try {
    for (std::int64_t c = 0; c < num_chunks; ++c) {
      fn(c);
    }
  } catch (...) {
    t_in_parallel = false;
    throw;
  }
  t_in_parallel = false;
}

// Runs a top-level region of num_chunks >= 2 chunks on the pool with up to
// `max_assists` assisting workers; a single-threaded runtime or a refused
// admission (every arena slot taken) runs it inline instead.
void run_region(std::int64_t num_chunks, int max_assists,
                FunctionRef<void(std::int64_t)> fn) {
  // Arena admission: g_pool_mutex guards lazy pool construction and the
  // shared-ownership pin; it is released before the pool handoff. A caller
  // the arenas cannot admit (every slot taken) runs inline on its own
  // thread — correct, but serial, so it is counted.
  TDC_ANALYZE_ALLOW(run-path-lock);
  std::shared_ptr<ThreadPool> pool;
  {
    std::unique_lock<std::mutex> lock(g_pool_mutex);
    const int nt = resolve_num_threads_locked();
    if (nt > 1 && !g_pool) {
      // One-time pool construction may be triggered by the first guarded
      // run; infrastructure warm-up is the sanctioned allocation.
      AllowAllocScope warmup;
      g_pool = std::make_shared<ThreadPool>(nt - 1);
    }
    pool = g_pool;  // pin: survives a concurrent set_num_threads
  }
  if (pool == nullptr) {
    g_inline_regions.fetch_add(1, std::memory_order_relaxed);
    run_inline(num_chunks, fn);
    return;
  }
  const int max_regions = resolve_inter_op();
  // The caller's armed deadline and armed alloc guard (if any) ride into the
  // pool workers, so cancellation polls and allocation denial inside worker
  // chunks (GEMM bands of a batched run) observe them. The wrapper is a
  // stack lambda behind a FunctionRef — no heap allocation either way — and
  // exists only on deadlined/guarded regions.
  const Deadline* dl = detail::active_deadline();
  const bool guarded = detail::t_alloc_guard.depth > 0 &&
                       detail::t_alloc_guard.bypass == 0;
  if (dl == nullptr && !guarded) {
    if (!pool->run(num_chunks, max_regions, max_assists, fn)) {
      note_serial_fallback();
      run_inline(num_chunks, fn);
    }
    return;
  }
  const char* guard_site = guarded ? detail::t_alloc_guard.site : nullptr;
  const auto propagated = [dl, guarded, guard_site,
                           fn](std::int64_t chunk) {
    const Deadline* prev =
        dl != nullptr ? detail::exchange_active_deadline(dl) : nullptr;
    struct Restore {
      const Deadline* dl;
      const Deadline* prev;
      ~Restore() {
        if (dl != nullptr) {
          detail::exchange_active_deadline(prev);
        }
      }
    } restore{dl, prev};
    if (guarded) {
      DenyAllocGuard guard(guard_site);
      fn(chunk);
    } else {
      fn(chunk);
    }
  };
  if (!pool->run(num_chunks, max_regions, max_assists, propagated)) {
    note_serial_fallback();
    run_inline(num_chunks, fn);  // deadline/guard are already armed here
  }
}

}  // namespace

int num_threads() {
  // First-call resolution takes the pool mutex once; the steady state is
  // the relaxed atomic load above it.
  TDC_ANALYZE_ALLOW(run-path-lock);
  const int nt = g_num_threads.load(std::memory_order_relaxed);
  if (nt != 0) {
    return nt;
  }
  std::unique_lock<std::mutex> lock(g_pool_mutex);
  return resolve_num_threads_locked();
}

void set_num_threads(int n) {
  const int clamped = n < 1 ? 1 : n;
  std::shared_ptr<ThreadPool> retired;
  {
    std::unique_lock<std::mutex> lock(g_pool_mutex);
    if (clamped != g_num_threads.load(std::memory_order_relaxed)) {
      retired = std::move(g_pool);  // rebuilt lazily at the new size
      g_pool = nullptr;
      g_num_threads.store(clamped, std::memory_order_relaxed);
    }
  }
  // `retired` (if any) is destroyed here, outside the mutex. Regions still
  // in flight on it hold their own references; the pool joins its workers
  // when the last reference drops.
}

ArenaConfig arena_config() {
  ArenaConfig c;
  c.inter_op = resolve_inter_op();
  c.intra_op = resolve_intra_op();
  return c;
}

void set_arena_config(const ArenaConfig& config) {
  if (config.inter_op != 0) {
    g_inter_op.store(clamp_inter_op(config.inter_op),
                     std::memory_order_relaxed);
  } else {
    // Back to the default resolution (env, then kMaxArenas) at next use.
    g_inter_op.store(0, std::memory_order_relaxed);
  }
  if (config.intra_op != 0) {
    g_intra_op.store(config.intra_op < 1 ? 1 : config.intra_op,
                     std::memory_order_relaxed);
  } else {
    // Back to the default resolution (env, then num_threads()) at next use.
    g_intra_op.store(-1, std::memory_order_relaxed);
  }
}

bool in_parallel_region() { return t_in_parallel; }

int region_width() {
  if (t_in_parallel) {
    return 1;
  }
  return std::min(num_threads(), resolve_intra_op());
}

int job_width() {
  if (t_in_parallel) {
    return 1;
  }
  return std::min(num_threads(), resolve_inter_op() * resolve_intra_op());
}

void parallel_jobs(std::int64_t n, FunctionRef<void(std::int64_t)> fn) {
  if (n <= 0) {
    return;
  }
  if (t_in_parallel) {
    for (std::int64_t j = 0; j < n; ++j) {
      fn(j);
    }
    return;
  }
  const int width = job_width();
  if (width == 1 || n == 1) {
    g_inline_regions.fetch_add(1, std::memory_order_relaxed);
    run_inline(n, fn);
    return;
  }
  run_region(n, width - 1, fn);
}

ParallelStats parallel_stats() {
  ParallelStats s;
  s.pool_regions = g_pool_regions.load(std::memory_order_relaxed);
  s.inline_regions = g_inline_regions.load(std::memory_order_relaxed);
  s.serial_fallbacks = g_serial_fallbacks.load(std::memory_order_relaxed);
  s.arena_regions = g_arena_regions.load(std::memory_order_relaxed);
  s.peak_concurrent_regions = g_peak_regions.load(std::memory_order_relaxed);
  return s;
}

namespace detail {

TDC_RUN_PATH void run_chunked(std::int64_t num_chunks,
                              FunctionRef<void(std::int64_t)> fn) {
  if (num_chunks <= 0) {
    return;
  }
  if (num_chunks == 1) {
    g_inline_regions.fetch_add(1, std::memory_order_relaxed);
    run_inline(num_chunks, fn);
    return;
  }
  run_region(num_chunks, resolve_intra_op() - 1, fn);
}

}  // namespace detail

}  // namespace tdc
