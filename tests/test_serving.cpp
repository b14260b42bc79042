// Tests for the serving layer (serving/inference_server.h): the replica
// fleet plus request coalescer against a serial one-session oracle —
// multi-client bitwise parity, zero pool degradation within the arena
// bound, typed overload rejection, deadline expiry (queued and mid-run)
// leaving replicas reusable, and the PlanCache single-flight compile the
// fleet cold-start depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/plan_cache.h"
#include "nn/models.h"
#include "serving/inference_server.h"

namespace tdc {
namespace {

// Restores runtime knobs and disarms fault points between tests.
class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = num_threads();
    saved_arenas_ = arena_config();
    fault_disarm_all();
  }
  void TearDown() override {
    fault_disarm_all();
    set_num_threads(saved_threads_);
    set_arena_config(saved_arenas_);
  }
  int saved_threads_ = 1;
  ArenaConfig saved_arenas_;
};

// A small conv chain: fast enough for multi-client stress on one core,
// deep enough that deadline polls hit several op boundaries.
ModelSpec make_tiny_model() {
  ModelSpec model;
  model.name = "serving-tiny";
  model.layers.push_back(
      LayerSpec::make_conv("conv0", ConvShape::same(3, 6, 12, 3)));
  model.layers.push_back(
      LayerSpec::make_conv("conv1", ConvShape::same(6, 6, 12, 3)));
  model.layers.push_back(LayerSpec::make_elementwise("relu", 6.0 * 12 * 12));
  model.layers.push_back(
      LayerSpec::make_conv("conv2", ConvShape::same(6, 4, 12, 3)));
  return model;
}

SessionOptions deterministic_session() {
  SessionOptions s;
  s.dense_algo = ConvAlgo::kIm2col;  // pinned: no cost-provider variance
  return s;
}

TEST_F(ServingTest, SingleRequestMatchesSessionBitwise) {
  const ModelSpec model = make_tiny_model();
  const auto weights = random_model_weights(model, 901);
  ServerOptions options;
  options.replicas = 2;
  options.session = deterministic_session();
  InferenceServer server = InferenceServer::compile(make_a100(), model,
                                                    weights, {}, options);
  const InferenceSession oracle = InferenceSession::compile(
      make_a100(), model, weights, {}, options.session);

  Rng rng(902);
  const OpShape& in = server.input_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);
  const Tensor got = server.infer(x);
  const Tensor want = oracle.run(x);
  EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.rejected_overload, 0);
}

TEST_F(ServingTest, InvalidGeometryIsTypedAndNotCounted) {
  const ModelSpec model = make_tiny_model();
  const auto weights = random_model_weights(model, 903);
  ServerOptions options;
  options.replicas = 1;
  options.session = deterministic_session();
  InferenceServer server = InferenceServer::compile(make_a100(), model,
                                                    weights, {}, options);
  Tensor bad({2, 2, 2});
  Tensor y({server.output_shape().c, server.output_shape().h,
            server.output_shape().w});
  try {
    server.infer(bad, &y);
    FAIL() << "expected kInvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
  EXPECT_EQ(server.stats().accepted, 0);
}

TEST_F(ServingTest, MultiClientStressMatchesSerialOracleBitwise) {
  set_num_threads(4);
  set_arena_config(ArenaConfig{});  // full arena width
  const ModelSpec model = make_tiny_model();
  const auto weights = random_model_weights(model, 904);
  ServerOptions options;
  options.replicas = 4;
  options.coalescer.max_batch = 4;
  options.coalescer.max_delay_s = 0.001;
  options.session = deterministic_session();
  InferenceServer server = InferenceServer::compile(make_a100(), model,
                                                    weights, {}, options);
  const InferenceSession oracle = InferenceSession::compile(
      make_a100(), model, weights, {}, options.session);

  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  const OpShape& in = server.input_shape();
  const OpShape& out = server.output_shape();

  // Distinct inputs per (client, request), and the serial oracle answers
  // computed up front on this thread.
  std::vector<std::vector<Tensor>> xs(kClients);
  std::vector<std::vector<Tensor>> want(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequests; ++r) {
      Rng rng(static_cast<std::uint64_t>(1000 + c * 100 + r));
      xs[static_cast<std::size_t>(c)].push_back(
          Tensor::random_uniform({in.c, in.h, in.w}, rng));
      want[static_cast<std::size_t>(c)].push_back(
          oracle.run(xs[static_cast<std::size_t>(c)].back()));
    }
  }

  const std::int64_t fallbacks_before = parallel_stats().serial_fallbacks;
  std::vector<std::vector<Tensor>> got(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequests; ++r) {
      got[static_cast<std::size_t>(c)].emplace_back(
          std::vector<std::int64_t>{out.c, out.h, out.w});
    }
  }
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < kRequests; ++r) {
          server.infer(xs[static_cast<std::size_t>(c)]
                         [static_cast<std::size_t>(r)],
                       &got[static_cast<std::size_t>(c)]
                           [static_cast<std::size_t>(r)]);
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }

  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequests; ++r) {
      ASSERT_EQ(Tensor::max_abs_diff(
                    got[static_cast<std::size_t>(c)]
                       [static_cast<std::size_t>(r)],
                    want[static_cast<std::size_t>(c)]
                        [static_cast<std::size_t>(r)]),
                0.0)
          << "client " << c << " request " << r;
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kClients * kRequests);
  EXPECT_EQ(stats.completed, kClients * kRequests);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.rejected_overload, 0);
  // Every dispatch is accounted as a solo run or a coalesced batch member.
  EXPECT_EQ(stats.solo_runs + stats.coalesced_images,
            kClients * kRequests);
  // The regression the task arenas fix: concurrent serving within the
  // arena bound must never degrade a region to inline execution.
  EXPECT_EQ(parallel_stats().serial_fallbacks - fallbacks_before, 0);
}

TEST_F(ServingTest, CoalescerBatchesConcurrentArrivals) {
  const ModelSpec model = make_tiny_model();
  const auto weights = random_model_weights(model, 905);
  ServerOptions options;
  options.replicas = 1;  // one replica forces arrivals to share it
  options.coalescer.max_batch = 4;
  options.coalescer.max_delay_s = 0.050;  // generous SLO window for CI
  options.session = deterministic_session();
  InferenceServer server = InferenceServer::compile(make_a100(), model,
                                                    weights, {}, options);
  const InferenceSession oracle = InferenceSession::compile(
      make_a100(), model, weights, {}, options.session);

  constexpr int kClients = 4;
  const OpShape& in = server.input_shape();
  const OpShape& out = server.output_shape();
  std::vector<Tensor> xs;
  std::vector<Tensor> want;
  std::vector<Tensor> got;
  for (int c = 0; c < kClients; ++c) {
    Rng rng(static_cast<std::uint64_t>(1100 + c));
    xs.push_back(Tensor::random_uniform({in.c, in.h, in.w}, rng));
    want.push_back(oracle.run(xs.back()));
    got.emplace_back(std::vector<std::int64_t>{out.c, out.h, out.w});
  }

  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        server.infer(xs[static_cast<std::size_t>(c)],
                     &got[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(Tensor::max_abs_diff(got[static_cast<std::size_t>(c)],
                                   want[static_cast<std::size_t>(c)]),
              0.0)
        << "client " << c;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kClients);
  // With one replica, a 50 ms window and four near-simultaneous arrivals,
  // at least one dispatch must have coalesced (the first may run solo).
  EXPECT_GE(stats.batches, 1);
  EXPECT_GE(stats.coalesced_images, 2);
}

TEST_F(ServingTest, DeadlineMidRunIsTypedAndReplicaStaysReusable) {
  const ModelSpec model = make_tiny_model();
  const auto weights = random_model_weights(model, 906);
  ServerOptions options;
  options.replicas = 1;
  options.coalescer.max_batch = 1;
  options.session = deterministic_session();
  InferenceServer server = InferenceServer::compile(make_a100(), model,
                                                    weights, {}, options);
  const InferenceSession oracle = InferenceSession::compile(
      make_a100(), model, weights, {}, options.session);

  Rng rng(907);
  const OpShape& in = server.input_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);
  Tensor y({server.output_shape().c, server.output_shape().h,
            server.output_shape().w});

  // Every op boundary sleeps 20 ms; a 1 ms budget dies mid-run.
  fault_arm("exec.op_delay", FaultSpec{.count = -1, .param = 20.0});
  try {
    server.infer(x, &y, Deadline::after(0.001));
    FAIL() << "expected kDeadlineExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  fault_disarm_all();

  // The failure left the replica reusable: the next request completes and
  // is bit-identical to a never-faulted session.
  server.infer(x, &y);
  EXPECT_EQ(Tensor::max_abs_diff(y, oracle.run(x)), 0.0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST_F(ServingTest, QueueExpiryIsTypedAndReplicaStaysReusable) {
  const ModelSpec model = make_tiny_model();
  const auto weights = random_model_weights(model, 908);
  ServerOptions options;
  options.replicas = 1;
  options.coalescer.max_batch = 1;
  options.session = deterministic_session();
  InferenceServer server = InferenceServer::compile(make_a100(), model,
                                                    weights, {}, options);

  Rng rng(909);
  const OpShape& in = server.input_shape();
  const OpShape& out = server.output_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);

  // Hold the replica busy: every op boundary sleeps 30 ms, so the holder
  // occupies the fleet for >= 120 ms once its first boundary fires.
  fault_arm("exec.op_delay", FaultSpec{.count = -1, .param = 30.0});
  std::thread holder([&] {
    Tensor y({out.c, out.h, out.w});
    server.infer(x, &y);  // unbounded budget: finishes despite the delays
  });
  // Handshake, not a sleep: the first fault firing proves the holder is
  // mid-run with the replica claimed.
  while (fault_fire_count("exec.op_delay") < 1) {
    std::this_thread::yield();
  }

  // A 5 ms budget dies in the queue long before the replica frees.
  Tensor y({out.c, out.h, out.w});
  try {
    server.infer(x, &y, Deadline::after(0.005));
    FAIL() << "expected kDeadlineExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }

  holder.join();
  fault_disarm_all();
  EXPECT_EQ(server.stats().expired_in_queue, 1);

  // Expiry while queued never touched a replica; the fleet serves on.
  server.infer(x, &y);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2);  // holder + post-check
  EXPECT_EQ(stats.failed, 1);
}

TEST_F(ServingTest, OverloadRejectsWithResourceExhausted) {
  const ModelSpec model = make_tiny_model();
  const auto weights = random_model_weights(model, 913);
  ServerOptions options;
  options.replicas = 1;
  options.max_pending = 1;
  options.coalescer.max_batch = 1;
  options.session = deterministic_session();
  InferenceServer server = InferenceServer::compile(make_a100(), model,
                                                    weights, {}, options);

  Rng rng(914);
  const OpShape& in = server.input_shape();
  const OpShape& out = server.output_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);

  fault_arm("exec.op_delay", FaultSpec{.count = -1, .param = 30.0});
  std::thread holder([&] {
    Tensor y({out.c, out.h, out.w});
    server.infer(x, &y);
  });
  while (fault_fire_count("exec.op_delay") < 1) {
    std::this_thread::yield();
  }
  // Fill the one pending slot; the waiter is admission #2 (the holder was
  // #1), so accepted reaching 2 proves it is queued before the probe fires.
  std::thread waiter([&] {
    Tensor y({out.c, out.h, out.w});
    server.infer(x, &y);
  });
  while (server.stats().accepted < 2) {
    std::this_thread::yield();
  }

  try {
    Tensor y({out.c, out.h, out.w});
    server.infer(x, &y);
    FAIL() << "expected kResourceExhausted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }

  holder.join();
  waiter.join();
  fault_disarm_all();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_overload, 1);
  EXPECT_EQ(stats.completed, 2);  // holder and waiter both finished
  EXPECT_EQ(stats.failed, 0);
}

TEST_F(ServingTest, PlanCacheSingleFlightCompilesOnceUnderContention) {
  // The thundering-herd regression: N concurrent same-key callers must
  // produce exactly one compile (one miss) and share one artifact.
  PlanCache& cache = PlanCache::instance();
  cache.clear();

  Rng rng(910);
  const ConvShape shape = ConvShape::same(8, 8, 24, 3);
  const Tensor kernel =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  PlanRequest req;
  req.shape = shape;
  req.kernel = &kernel;
  req.algo = ConvAlgo::kIm2col;

  constexpr int kCallers = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::shared_ptr<const ConvPlan>> plans(kCallers);
  {
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        plans[static_cast<std::size_t>(t)] =
            cache.get_or_compile(req);
      });
    }
    while (ready.load() < kCallers) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : callers) {
      t.join();
    }
  }

  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1) << "single-flight must compile once";
  EXPECT_EQ(stats.hits, kCallers - 1);
  EXPECT_EQ(stats.entries, 1);
  for (int t = 1; t < kCallers; ++t) {
    EXPECT_EQ(plans[static_cast<std::size_t>(t)], plans[0])
        << "caller " << t << " got a different artifact";
  }
  cache.clear();
}

TEST_F(ServingTest, BatchedFanOutTracksRuntimeThreadCount) {
  // The frozen fan-out regression: a session compiled under one thread must
  // fan a batched run out across the *caller's* concurrency, and its
  // batched workspace quote must grow with it.
  set_num_threads(1);
  const ModelSpec model = make_tiny_model();
  const auto weights = random_model_weights(model, 911);
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, {}, deterministic_session());
  constexpr std::int64_t kBatch = 4;
  const std::int64_t narrow = session.batched_workspace_bytes(kBatch);
  EXPECT_EQ(narrow, session.workspace_bytes());  // one slot at one thread

  set_num_threads(4);
  const std::int64_t wide = session.batched_workspace_bytes(kBatch);
  EXPECT_EQ(wide, 4 * session.workspace_bytes());

  // Runs sized either way are correct: the narrow workspace clamps the
  // fan-out, the wide one uses it — both bit-identical to per-image runs.
  Rng rng(912);
  const OpShape& in = session.input_shape();
  const OpShape& out = session.output_shape();
  const Tensor x =
      Tensor::random_uniform({kBatch, in.c, in.h, in.w}, rng);
  Tensor y_wide({kBatch, out.c, out.h, out.w});
  std::vector<float> ws_wide(
      static_cast<std::size_t>(wide / sizeof(float)));
  session.run_batched(x, &y_wide, ws_wide);

  Tensor y_narrow({kBatch, out.c, out.h, out.w});
  std::vector<float> ws_narrow(
      static_cast<std::size_t>(narrow / sizeof(float)));
  session.run_batched(x, &y_narrow, ws_narrow);
  EXPECT_EQ(Tensor::max_abs_diff(y_wide, y_narrow), 0.0);

  const std::int64_t x_stride = in.floats();
  const std::int64_t y_stride = out.floats();
  for (std::int64_t b = 0; b < kBatch; ++b) {
    Tensor xb({in.c, in.h, in.w});
    std::copy(x.raw() + b * x_stride, x.raw() + (b + 1) * x_stride,
              xb.raw());
    const Tensor yb = session.run(xb);
    for (std::int64_t i = 0; i < y_stride; ++i) {
      ASSERT_EQ(y_wide[b * y_stride + i], yb[i]) << "image " << b;
    }
  }
}

}  // namespace
}  // namespace tdc
