#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/alloc_guard.h"
#include "common/check.h"
#include "common/deadline.h"
#include "common/env.h"
#include "common/parallel.h"

namespace tdc {
namespace {

// Restores the ambient thread count and arena split after each test so
// suites don't leak configuration into each other.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = num_threads();
    saved_arenas_ = arena_config();
  }
  void TearDown() override {
    set_num_threads(saved_threads_);
    set_arena_config(saved_arenas_);
  }
  int saved_threads_ = 1;
  ArenaConfig saved_arenas_;
};

TEST_F(ParallelTest, NumThreadsIsPositive) { EXPECT_GE(num_threads(), 1); }

TEST_F(ParallelTest, SetNumThreadsClampsToOne) {
  set_num_threads(0);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(-3);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
}

TEST_F(ParallelTest, CoversRangeExactlyOnce) {
  for (const int nt : {1, 2, 4, 7}) {
    set_num_threads(nt);
    constexpr std::int64_t kN = 10'007;  // prime, uneven chunking
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(0, kN, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST_F(ParallelTest, EmptyRangeDoesNothing) {
  bool called = false;
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { called = true; });
  parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ParallelTest, GrainSizeKeepsSmallRangesInline) {
  set_num_threads(4);
  int calls = 0;  // safe only because the range must stay on one thread
  parallel_for(0, 100, 1000, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, DeterministicAcrossThreadCounts) {
  constexpr std::int64_t kN = 4'096;
  auto run = [&](int nt) {
    set_num_threads(nt);
    std::vector<float> out(kN);
    parallel_for(0, kN, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        out[static_cast<std::size_t>(i)] =
            static_cast<float>(i) * 0.25f + 1.0f;
      }
    });
    return out;
  };
  const std::vector<float> serial = run(1);
  const std::vector<float> threaded = run(8);
  EXPECT_EQ(serial, threaded);
}

TEST_F(ParallelTest, ReduceMatchesSerialSum) {
  constexpr std::int64_t kN = 123'457;
  const auto body = [](std::int64_t b, std::int64_t e, std::int64_t acc) {
    for (std::int64_t i = b; i < e; ++i) {
      acc += i;
    }
    return acc;
  };
  const auto combine = [](std::int64_t a, std::int64_t b) { return a + b; };
  set_num_threads(1);
  const std::int64_t serial =
      parallel_reduce(0, kN, 1, std::int64_t{0}, body, combine);
  set_num_threads(5);
  const std::int64_t threaded =
      parallel_reduce(0, kN, 1, std::int64_t{0}, body, combine);
  EXPECT_EQ(serial, kN * (kN - 1) / 2);
  EXPECT_EQ(threaded, serial);
}

TEST_F(ParallelTest, NestedCallsRunInline) {
  set_num_threads(4);
  std::atomic<int> inner_calls{0};
  parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    EXPECT_TRUE(in_parallel_region());
    // A nested region must not fan out again; it runs inline on this thread.
    parallel_for(0, 100, 1, [&](std::int64_t ib, std::int64_t ie) {
      EXPECT_EQ(ib, 0);
      EXPECT_EQ(ie, 100);
      inner_calls.fetch_add(1);
    });
    (void)b;
    (void)e;
  });
  EXPECT_FALSE(in_parallel_region());
  EXPECT_GE(inner_calls.load(), 1);
}

TEST_F(ParallelTest, ConcurrentTopLevelCallersStayCorrect) {
  // Two application threads opening top-level regions at once: the arena
  // admission gives each its own region (workers shared chunk by chunk) —
  // both must cover their own range exactly.
  set_num_threads(4);
  constexpr std::int64_t kN = 50'000;
  auto fill = [&](std::vector<std::int64_t>& out) {
    parallel_for(0, kN, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        out[static_cast<std::size_t>(i)] = i * 3 + 1;
      }
    });
  };
  for (int round = 0; round < 20; ++round) {
    std::vector<std::int64_t> a(kN, -1);
    std::vector<std::int64_t> b(kN, -1);
    std::thread other([&] { fill(b); });
    fill(a);
    other.join();
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(a[static_cast<std::size_t>(i)], i * 3 + 1) << "a @" << i;
      ASSERT_EQ(b[static_cast<std::size_t>(i)], i * 3 + 1) << "b @" << i;
    }
  }
}

TEST_F(ParallelTest, ArenaConfigResolvesDefaults) {
  // A default field resolves from the environment first (the threaded CI
  // step sets TDC_INTRA_OP), then from the built-in default.
  const auto env_inter = env_int("TDC_INTER_OP", 1, kMaxArenas);
  const auto env_intra = env_int("TDC_INTRA_OP", 1, 4096);
  set_arena_config(ArenaConfig{});  // both fields default
  const ArenaConfig cfg = arena_config();
  EXPECT_EQ(cfg.inter_op, env_inter.value_or(kMaxArenas));
  // intra_op 0 tracks the thread count unless TDC_INTRA_OP is set.
  EXPECT_EQ(cfg.intra_op, env_intra.value_or(num_threads()));

  set_arena_config(ArenaConfig{.inter_op = 3, .intra_op = 2});
  EXPECT_EQ(arena_config().inter_op, 3);
  EXPECT_EQ(arena_config().intra_op, 2);

  set_arena_config(ArenaConfig{.inter_op = 100, .intra_op = 0});
  EXPECT_EQ(arena_config().inter_op, kMaxArenas);  // clamped to the slots
  EXPECT_EQ(arena_config().intra_op, env_intra.value_or(num_threads()));
}

TEST_F(ParallelTest, ConcurrentCallersWithinInterOpNeverFallBack) {
  // The regression this PR exists for: with arena slots free, N concurrent
  // top-level callers must all be served by the pool — zero of them may
  // degrade to inline serial execution.
  set_num_threads(4);
  set_arena_config(ArenaConfig{});  // inter_op = kMaxArenas
  constexpr int kCallers = 4;      // <= kMaxArenas
  constexpr std::int64_t kN = 200'000;

  const std::int64_t fallbacks_before = parallel_stats().serial_fallbacks;
  std::vector<std::vector<std::int64_t>> outs(
      kCallers, std::vector<std::int64_t>(kN, -1));
  {
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&outs, t] {
        for (int round = 0; round < 5; ++round) {
          parallel_for(0, kN, 1, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
              outs[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
                  i * 3 + t;
            }
          });
        }
      });
    }
    for (std::thread& th : callers) {
      th.join();
    }
  }
  EXPECT_EQ(parallel_stats().serial_fallbacks - fallbacks_before, 0);
  for (int t = 0; t < kCallers; ++t) {
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(outs[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
                i * 3 + t)
          << "caller " << t << " @" << i;
    }
  }
}

TEST_F(ParallelTest, InterOpOneForcesCountedFallback) {
  // With the arena bound dropped to one region, a second concurrent caller
  // must degrade to inline execution — correct results, counted fallback.
  set_num_threads(4);
  // Width 4 is explicit: a width-1 region runs inline and never takes a slot.
  set_arena_config(ArenaConfig{.inter_op = 1, .intra_op = 4});
  constexpr std::int64_t kN = 500'000;
  const std::int64_t fallbacks_before = parallel_stats().serial_fallbacks;

  std::int64_t fallbacks_after = fallbacks_before;
  // Colliding two regions is timing-dependent; retry a few rounds (each
  // round overlaps two large regions, so one collision is near-certain).
  for (int round = 0; round < 50 && fallbacks_after == fallbacks_before;
       ++round) {
    std::vector<std::int64_t> a(kN, -1);
    std::vector<std::int64_t> b(kN, -1);
    auto fill = [&](std::vector<std::int64_t>& out) {
      parallel_for(0, kN, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          out[static_cast<std::size_t>(i)] = i;
        }
      });
    };
    std::thread other([&] { fill(b); });
    fill(a);
    other.join();
    for (std::int64_t i = 0; i < kN; i += 997) {
      ASSERT_EQ(a[static_cast<std::size_t>(i)], i);
      ASSERT_EQ(b[static_cast<std::size_t>(i)], i);
    }
    fallbacks_after = parallel_stats().serial_fallbacks;
  }
  EXPECT_GT(fallbacks_after, fallbacks_before);
}

TEST_F(ParallelTest, StatsCountRegions) {
  set_num_threads(4);
  set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = 4});
  const ParallelStats before = parallel_stats();
  parallel_for(0, 10'000, 1, [](std::int64_t, std::int64_t) {});
  const ParallelStats after = parallel_stats();
  EXPECT_EQ(after.pool_regions, before.pool_regions + 1);
  // A solo region is not a fallback, and the high-water mark is at least 1.
  EXPECT_EQ(after.serial_fallbacks, before.serial_fallbacks);
  EXPECT_GE(after.peak_concurrent_regions, 1);
}

TEST_F(ParallelTest, WidthOneRegionsRunInlineNotOnThePool) {
  // At intra_op = 1 no worker may assist, so a region is one chunk run on
  // the caller: counted inline, never a pool region or a fallback.
  set_num_threads(4);
  set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = 1});
  EXPECT_EQ(region_width(), 1);
  const ParallelStats before = parallel_stats();
  int calls = 0;  // safe only because the range must stay on one thread
  parallel_for(0, 10'000, 1, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_TRUE(in_parallel_region());
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 10'000);
  });
  const std::int64_t sum = parallel_reduce(
      0, 100, 1, std::int64_t{0},
      [](std::int64_t b, std::int64_t e, std::int64_t acc) {
        return acc + (e - b);
      },
      [](std::int64_t x, std::int64_t y) { return x + y; });
  const ParallelStats after = parallel_stats();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sum, 100);
  EXPECT_EQ(after.pool_regions, before.pool_regions);
  EXPECT_EQ(after.inline_regions, before.inline_regions + 2);
  EXPECT_EQ(after.serial_fallbacks, before.serial_fallbacks);
}

TEST_F(ParallelTest, ChunksFollowTheEffectiveWidth) {
  // Chunks are cut for the threads that will serve the region:
  // min(num_threads(), intra_op), and 1 inside a region.
  set_num_threads(4);
  for (const int intra_op : {1, 2, 3, 4, 8}) {
    set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = intra_op});
    const int width = std::min(4, intra_op);
    EXPECT_EQ(region_width(), width);
    std::atomic<int> chunks{0};
    parallel_for(0, 1'000, 1, [&](std::int64_t, std::int64_t) {
      EXPECT_EQ(region_width(), 1);
      chunks.fetch_add(1);
    });
    EXPECT_EQ(chunks.load(), width) << "intra_op=" << intra_op;
  }
}

// A deliberately foreign exception type: the pool must rethrow anything the
// body throws, not just the tdc::Error taxonomy.
struct Boom {};

TEST_F(ParallelTest, ExceptionsPropagateToCaller) {
  for (const int nt : {1, 4}) {
    set_num_threads(nt);
    EXPECT_THROW(parallel_for(0, 64, 1,
                              [&](std::int64_t b, std::int64_t) {
                                if (b >= 0) {
                                  throw Boom{};
                                }
                              }),
                 Boom);
    // The pool must stay usable after an exception.
    std::atomic<std::int64_t> sum{0};
    parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
      sum.fetch_add(e - b);
    });
    EXPECT_EQ(sum.load(), 64);
  }
}

// ------------------------------------------------------------ job regions --

TEST_F(ParallelTest, JobsRunExactlyOnce) {
  for (const int nt : {1, 2, 4, 7}) {
    set_num_threads(nt);
    for (const int intra_op : {1, 0}) {
      set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = intra_op});
      for (const std::int64_t n : {0, 1, 2, 5, 100}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        parallel_jobs(n, [&](std::int64_t j) {
          EXPECT_TRUE(in_parallel_region());
          hits[static_cast<std::size_t>(j)].fetch_add(1);
        });
        for (std::int64_t j = 0; j < n; ++j) {
          ASSERT_EQ(hits[static_cast<std::size_t>(j)].load(), 1)
              << "nt=" << nt << " intra_op=" << intra_op << " n=" << n
              << " job " << j;
        }
      }
    }
  }
}

TEST_F(ParallelTest, JobWidthIsTheArenaCapacityCappedByThreads) {
  struct Case {
    int threads, inter_op, intra_op, width;
  };
  // 0 = the field's default (inter_op kMaxArenas, intra_op num_threads()).
  const Case cases[] = {
      {4, 0, 1, 4},  // the int8 fleet: width-1 replicas, jobs on all four
      {2, 0, 0, 2},  // the fp32 latency session: same as region_width()
      {4, 2, 1, 2}, {4, 1, 1, 1}, {4, 1, 3, 3}, {4, 2, 3, 4},
      {3, 1, 2, 2}, {1, 0, 4, 1}, {7, 3, 2, 6},
  };
  for (const Case& c : cases) {
    set_num_threads(c.threads);
    set_arena_config(
        ArenaConfig{.inter_op = c.inter_op, .intra_op = c.intra_op});
    const ArenaConfig cfg = arena_config();
    EXPECT_EQ(job_width(), c.width)
        << "threads=" << c.threads << " inter_op=" << cfg.inter_op
        << " intra_op=" << cfg.intra_op;
    EXPECT_EQ(job_width(), std::min(c.threads, cfg.inter_op * cfg.intra_op));
    // Never more jobs in flight than the width.
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    parallel_jobs(4 * c.width + 3, [&](std::int64_t) {
      const int now = running.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      running.fetch_sub(1);
    });
    EXPECT_LE(peak.load(), c.width) << "threads=" << c.threads;
    EXPECT_GE(peak.load(), 1);
  }
}

TEST_F(ParallelTest, JobsRunInlineAtWidthOneAndInsideARegion) {
  set_num_threads(4);
  set_arena_config(ArenaConfig{.inter_op = 1, .intra_op = 1});
  ASSERT_EQ(job_width(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::int64_t> order;
  const ParallelStats before = parallel_stats();
  parallel_jobs(6, [&](std::int64_t j) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_TRUE(in_parallel_region());
    EXPECT_EQ(job_width(), 1);
    // A job runs serially: its parallel loops are one inline chunk.
    int chunks = 0;
    parallel_for(0, 1'000, 1, [&](std::int64_t, std::int64_t) { ++chunks; });
    EXPECT_EQ(chunks, 1);
    order.push_back(j);
  });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_FALSE(in_parallel_region());
  const ParallelStats after = parallel_stats();
  EXPECT_EQ(after.pool_regions, before.pool_regions);
  EXPECT_EQ(after.inline_regions, before.inline_regions + 1);

  // Inside a region, jobs run inline on the chunk's own thread, in order,
  // and the chunk is still inside its region afterwards.
  set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = 4});
  std::atomic<int> bad{0};
  parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t) {
    const std::thread::id self = std::this_thread::get_id();
    EXPECT_EQ(job_width(), 1);
    std::int64_t next = 0;
    parallel_jobs(5, [&](std::int64_t j) {
      if (std::this_thread::get_id() != self || j != next++) {
        bad.fetch_add(1);
      }
    });
    if (next != 5 || !in_parallel_region()) {
      bad.fetch_add(1);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ParallelTest, JobExceptionIsRethrownAndStopsFurtherJobs) {
  set_num_threads(4);
  // Width 1: jobs run in order, so nothing after the throwing job starts.
  set_arena_config(ArenaConfig{.inter_op = 1, .intra_op = 1});
  std::vector<std::int64_t> started;
  EXPECT_THROW(parallel_jobs(10,
                             [&](std::int64_t j) {
                               started.push_back(j);
                               if (j == 3) {
                                 throw Boom{};
                               }
                             }),
               Boom);
  EXPECT_EQ(started, (std::vector<std::int64_t>{0, 1, 2, 3}));

  // Width 4: the caller's job 0 throws at once while the workers' jobs
  // sleep, so only the jobs already handed out may still run — not the
  // other 60.
  set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = 1});
  ASSERT_EQ(job_width(), 4);
  constexpr std::int64_t kJobs = 64;
  std::atomic<int> begun{0};
  EXPECT_THROW(parallel_jobs(kJobs,
                             [&](std::int64_t j) {
                               begun.fetch_add(1);
                               if (j == 0) {
                                 throw Boom{};
                               }
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(10));
                             }),
               Boom);
  EXPECT_GE(begun.load(), 1);
  EXPECT_LE(begun.load(), 8);

  // The pool stays usable.
  std::atomic<std::int64_t> sum{0};
  parallel_jobs(kJobs, [&](std::int64_t j) { sum.fetch_add(j); });
  EXPECT_EQ(sum.load(), kJobs * (kJobs - 1) / 2);
}

TEST_F(ParallelTest, JobsCarryTheCallersDeadlineAndAllocGuard) {
  set_num_threads(4);
  set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = 1});
  ASSERT_EQ(job_width(), 4);
  constexpr std::int64_t kJobs = 16;
  const auto slow_job = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  {
    const DeadlineScope scope(Deadline::after(60.0));
    const Deadline* armed = detail::active_deadline();
    ASSERT_NE(armed, nullptr);
    std::atomic<int> missing{0};
    parallel_jobs(kJobs, [&](std::int64_t) {
      if (detail::active_deadline() != armed) {
        missing.fetch_add(1);
      }
      slow_job();
    });
    EXPECT_EQ(missing.load(), 0);
  }
  {
    const DeadlineScope scope(Deadline::after(0.0));
    try {
      parallel_jobs(kJobs, [&](std::int64_t) {
        slow_job();
        deadline_poll("job");
      });
      ADD_FAILURE() << "an expired deadline must stop the jobs";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    }
  }
  EXPECT_EQ(detail::active_deadline(), nullptr);

  const bool guard_was_on = alloc_guard_enabled();
  set_alloc_guard(true);
  {
    std::atomic<int> unguarded{0};
    std::atomic<int> denied{0};
    {
      DenyAllocGuard guard("parallel_jobs test");
      parallel_jobs(kJobs, [&](std::int64_t) {
        if (!(detail::t_alloc_guard.depth > 0 &&
              detail::t_alloc_guard.bypass == 0)) {
          unguarded.fetch_add(1);
        }
        slow_job();
      });
      try {
        parallel_jobs(kJobs, [&](std::int64_t) {
          slow_job();
          std::vector<int> hidden(64);  // must be denied on every thread
          hidden[0] = 1;
        });
      } catch (const Error& e) {
        if (e.code() == ErrorCode::kInternal) {
          denied.fetch_add(1);
        }
      }
    }
    EXPECT_EQ(unguarded.load(), 0);
    EXPECT_EQ(denied.load(), 1);
  }
  set_alloc_guard(guard_was_on);
}

}  // namespace
}  // namespace tdc
