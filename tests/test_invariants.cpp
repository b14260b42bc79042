// Invariant-enforcement layer tests (common/alloc_guard.h,
// exec/workspace_guard.h): the allocation-interposition guard and the
// workspace canary bands must (1) catch planted violations as typed errors
// naming the site/op, (2) recover to bitwise-identical reruns in the same
// process, (3) be provable no-ops when disarmed, and (4) prove the
// acceptance property — InferenceSession::run / run_batched on full-width
// ResNet-18 performs zero heap allocations end to end once warmed. The
// 8-thread stress test at the bottom is the TSan regression for the
// process-wide singletons (stat counters, calibration memo, fault registry,
// plan cache, guard enablement flags).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/alloc_guard.h"
#include "common/check.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/conv_plan.h"
#include "exec/graph_plan.h"
#include "exec/microbench.h"
#include "exec/plan_cache.h"
#include "exec/workspace_guard.h"
#include "gpusim/device.h"
#include "nn/models.h"

namespace tdc {
namespace {

// Every test leaves the process as it found it: guards disarmed, no armed
// faults, no finite screening.
class InvariantTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault_disarm_all();
    set_alloc_guard(false);
    set_workspace_guard(false);
    set_check_finite(false);
  }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.raw(), b.raw(), static_cast<std::size_t>(a.numel()) *
                                           sizeof(float)) == 0;
}

// Compiled serving inventory: ResNet-20/CIFAR, dense, pinned im2col so
// compiles are fast and bit-deterministic.
struct Serving {
  explicit Serving(unsigned seed = 2026) {
    SessionOptions options;
    options.dense_algo = ConvAlgo::kIm2col;
    model = make_resnet20_cifar();
    weights = random_model_weights(model, seed);
    session = InferenceSession::compile(make_a100(), model, weights, {},
                                        options);
    Rng rng(7);
    x = Tensor::random_uniform({session.input_shape().c,
                                session.input_shape().h,
                                session.input_shape().w},
                               rng, -1.0f, 1.0f);
    y = Tensor({session.output_shape().c, session.output_shape().h,
                session.output_shape().w});
    workspace.resize(
        static_cast<std::size_t>(session.workspace_bytes() / sizeof(float)));
  }

  Tensor run_once() {
    session.run(x, &y, workspace);
    return y;
  }

  ModelSpec model;
  std::vector<LayerWeights> weights;
  InferenceSession session;
  Tensor x;
  Tensor y;
  std::vector<float> workspace;
};

// ---------------------------------------------------------------------------
// DenyAllocGuard semantics.

TEST_F(InvariantTest, ArmedGuardDeniesAllocationNamingTheSite) {
  set_alloc_guard(true);
  const std::int64_t before = alloc_guard_violations();
  // The guard lives inside the try so stack unwinding pops it before the
  // handler runs — the handler itself is free to allocate.
  try {
    DenyAllocGuard guard("test.site");
    std::vector<int> v(1024);
    FAIL() << "allocation inside an armed guard must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
    EXPECT_NE(std::string(e.what()).find("test.site"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(alloc_guard_violations(), before + 1);
}

TEST_F(InvariantTest, DisarmedGuardIsANoop) {
  set_alloc_guard(false);
  const std::int64_t before = alloc_guard_violations();
  DenyAllocGuard guard("test.site");
  std::vector<int> v(1024);  // must not throw
  v[0] = 1;
  EXPECT_EQ(alloc_guard_violations(), before);
}

TEST_F(InvariantTest, AllowAllocScopeSuspendsTheGuard) {
  set_alloc_guard(true);
  const std::int64_t before = alloc_guard_violations();
  DenyAllocGuard guard("test.site");
  {
    AllowAllocScope allow;
    std::vector<int> v(1024);  // sanctioned cold-path allocation
    v[0] = 1;
  }
  EXPECT_EQ(alloc_guard_violations(), before);
}

TEST_F(InvariantTest, NestedGuardsReportTheInnermostSite) {
  set_alloc_guard(true);
  try {
    DenyAllocGuard outer("outer.site");
    DenyAllocGuard inner("inner.site");
    std::vector<int> v(16);
    FAIL() << "expected a violation";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("inner.site"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Planted faults: catch, then recover bitwise-identically.

TEST_F(InvariantTest, HiddenAllocationInRunIsCaughtAndSessionRecovers) {
  Serving serving;
  const Tensor clean = serving.run_once();  // warm-up (thread-local buffers)

  set_alloc_guard(true);
  fault_arm("exec.run_hidden_alloc", FaultSpec{.count = 1});
  try {
    serving.run_once();
    FAIL() << "planted hidden allocation must be denied";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
    EXPECT_NE(std::string(e.what()).find("InferenceSession::run"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fault_fire_count("exec.run_hidden_alloc"), 1);

  // Same process, same session: the next run is bitwise identical.
  EXPECT_TRUE(bitwise_equal(serving.run_once(), clean));
}

TEST_F(InvariantTest, HiddenAllocationIsHarmlessWhenDisarmed) {
  Serving serving;
  const Tensor clean = serving.run_once();
  set_alloc_guard(false);
  const std::int64_t before = alloc_guard_violations();
  fault_arm("exec.run_hidden_alloc", FaultSpec{.count = 1});
  EXPECT_TRUE(bitwise_equal(serving.run_once(), clean));
  EXPECT_EQ(alloc_guard_violations(), before);
}

TEST_F(InvariantTest, WorkspaceOverrunIsCaughtNamingTheOpAndRecovers) {
  set_workspace_guard(true);
  Serving serving;  // compiled with canary bands frozen in
  set_workspace_guard(false);  // the session keeps its compiled layout
  const Tensor clean = serving.run_once();  // bands intact on a clean run

  fault_arm("exec.op_overrun", FaultSpec{.count = 1});
  try {
    serving.run_once();
    FAIL() << "planted overrun must trip the canary band";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDataCorruption);
    EXPECT_NE(std::string(e.what()).find("trailing arena band"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("op '"), std::string::npos);
  }
  EXPECT_EQ(fault_fire_count("exec.op_overrun"), 1);

  EXPECT_TRUE(bitwise_equal(serving.run_once(), clean));
}

TEST_F(InvariantTest, GuardedAndUnguardedSessionsAgreeBitwise) {
  set_workspace_guard(false);
  Serving plain;
  set_workspace_guard(true);
  Serving banded;
  set_workspace_guard(false);
  // Bands cost workspace but never touch results.
  EXPECT_GT(banded.session.workspace_bytes(),
            plain.session.workspace_bytes());
  EXPECT_TRUE(bitwise_equal(plain.run_once(), banded.run_once()));
}

TEST_F(InvariantTest, OverrunFaultIsInertOnAnUnguardedBandlessRun) {
  // Without bands the planted overrun is never requested: the fault point
  // sits behind the band check in run_graph only when it can be observed —
  // a disarmed-guard session must run exactly as before.
  set_workspace_guard(false);
  Serving serving;
  const Tensor clean = serving.run_once();
  EXPECT_TRUE(bitwise_equal(serving.run_once(), clean));
}

// ---------------------------------------------------------------------------
// Acceptance: full-width ResNet-18 serves with zero heap allocations.

TEST_F(InvariantTest, FullWidthResnet18ServesAllocationFree) {
  const ModelSpec model = make_resnet18();
  const auto weights = random_model_weights(model, 813);
  // Default options: host-provider algorithm selection, the deployable
  // configuration (PR 5's acceptance walk).
  InferenceSession session =
      InferenceSession::compile(make_a100(), model, weights, {}, {});

  Rng rng(11);
  Tensor x = Tensor::random_uniform({session.input_shape().c,
                                     session.input_shape().h,
                                     session.input_shape().w},
                                    rng, -1.0f, 1.0f);
  Tensor y({session.output_shape().c, session.output_shape().h,
            session.output_shape().w});
  std::vector<float> ws(
      static_cast<std::size_t>(session.workspace_bytes() / sizeof(float)));
  session.run(x, &y, ws);  // warm-up: thread-local pack buffers grow here

  const std::int64_t before = alloc_guard_violations();
  set_alloc_guard(true);
  Tensor y2({session.output_shape().c, session.output_shape().h,
             session.output_shape().w});
  session.run(x, &y2, ws);  // armed: any hidden allocation throws
  EXPECT_TRUE(bitwise_equal(y, y2));
  EXPECT_EQ(alloc_guard_violations(), before);

  // Batched serving under the armed guard, workers included.
  const std::int64_t batch = 4;
  Tensor xb({batch, session.input_shape().c, session.input_shape().h,
             session.input_shape().w});
  for (std::int64_t b = 0; b < batch; ++b) {
    std::memcpy(xb.raw() + b * x.numel(), x.raw(),
                static_cast<std::size_t>(x.numel()) * sizeof(float));
  }
  Tensor yb({batch, session.output_shape().c, session.output_shape().h,
             session.output_shape().w});
  std::vector<float> wsb(static_cast<std::size_t>(
      session.batched_workspace_bytes(batch) / sizeof(float)));
  set_alloc_guard(false);
  session.run_batched(xb, &yb, wsb);  // warm-up per worker slot
  set_alloc_guard(true);
  session.run_batched(xb, &yb, wsb);
  EXPECT_EQ(alloc_guard_violations(), before);
  for (std::int64_t b = 0; b < batch; ++b) {
    EXPECT_EQ(std::memcmp(yb.raw() + b * y.numel(), y.raw(),
                          static_cast<std::size_t>(y.numel()) *
                              sizeof(float)),
              0)
        << "batched image " << b << " diverged under the armed guard";
  }
}

// ---------------------------------------------------------------------------
// TSan regression: 8 threads hammer every process-wide singleton at once.

TEST_F(InvariantTest, ConcurrentSingletonStress) {
  // Warm the lazy singletons once so the stress exercises steady-state
  // reads against occasional writes, not just first-init.
  (void)num_threads();
  (void)parallel_stats();
  (void)host_calibration();
  (void)alloc_guard_enabled();
  (void)workspace_guard_enabled();
  (void)PlanCache::instance().stats();

  // Force a real pool even on a single-core host so the stress exercises
  // the fork/join handoff, the worker-propagated thread-local state, and
  // the serial-fallback path rather than degenerating to inline loops.
  const int restore_threads = num_threads();
  set_num_threads(4);

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const ConvShape shape{.c = 8, .n = 8, .h = 8, .w = 8, .r = 3, .s = 3};
      for (int i = 0; i < kIters; ++i) {
        (void)parallel_stats();
        (void)num_threads();
        (void)host_calibration();
        (void)alloc_guard_enabled();
        (void)workspace_guard_enabled();
        (void)fault_armed("stress.point");
        (void)fault_injected("stress.nothing");
        (void)PlanCache::instance().stats();
        if (t == 0 && i % 50 == 0) {
          // A writer among the readers: arm/disarm churns the registry
          // and the fast-path armed count.
          fault_arm("stress.point", FaultSpec{.count = 1});
          (void)fault_injected("stress.point");
          fault_disarm("stress.point");
        }
        // Concurrent top-level parallel regions: one wins the pool, the
        // rest take the counted inline fallback — all of it must be clean
        // under TSan.
        // Each chunk sums locally and folds its partial into the atomic
        // total, so overlapping chunks lose no writes.
        std::atomic<std::int64_t> acc{0};
        parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
          std::int64_t partial = 0;
          for (std::int64_t j = b; j < e; ++j) {
            partial += j;
          }
          acc.fetch_add(partial);
        });
        EXPECT_EQ(acc, 64 * 63 / 2);
        if (i % 20 == t % 20) {
          // Shared-cache compiles of one shape: every thread hits the same
          // PlanCache entry, so the single-flight path runs under contention.
          Rng rng(13);
          const Tensor kernel = Tensor::random_uniform(
              {shape.c, shape.n, shape.r, shape.s}, rng, -1.0f, 1.0f);
          PlanRequest req;
          req.shape = shape;
          req.kernel = &kernel;
          req.algo = ConvAlgo::kIm2col;
          (void)PlanCache::instance().get_or_compile(req);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  set_num_threads(restore_threads);
  const ParallelStats stats = parallel_stats();
  EXPECT_GT(stats.pool_regions + stats.inline_regions +
                stats.serial_fallbacks,
            0);
}

}  // namespace
}  // namespace tdc
