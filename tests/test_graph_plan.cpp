// Tests for the graph-level plan API (exec/graph_plan.h): whole ModelSpecs
// compiled into one InferenceSession — per-op oracle parity (the liveness
// arena must behave exactly like private per-op buffers), residual and
// concat DAGs, a convolution-only trunk against a hand-staged
// im2col/Tucker chain, the full ResNet-18 inventory end to end, thread-count
// determinism, batched serving, the descriptor-keyed plan cache, and
// decision-list validation.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/alloc_guard.h"
#include "common/check.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/conv_plan.h"
#include "exec/epilogue.h"
#include "exec/graph_plan.h"
#include "exec/op_plans.h"
#include "exec/plan_cache.h"
#include "exec/quantize.h"
#include "nn/models.h"
#include "tucker/tucker.h"

namespace tdc {
namespace {

constexpr float kGuard = 12345.678f;
constexpr std::int64_t kGuardFloats = 64;

struct PoisonedWorkspace {
  explicit PoisonedWorkspace(std::int64_t bytes)
      : floats(bytes / static_cast<std::int64_t>(sizeof(float))),
        buf(static_cast<std::size_t>(floats + 2 * kGuardFloats), kGuard) {
    poison();
  }

  void poison() {
    std::fill(buf.begin() + kGuardFloats, buf.begin() + kGuardFloats + floats,
              std::numeric_limits<float>::quiet_NaN());
  }

  std::span<float> span() {
    return std::span<float>(buf).subspan(kGuardFloats,
                                         static_cast<std::size_t>(floats));
  }

  bool guards_intact() const {
    for (std::int64_t i = 0; i < kGuardFloats; ++i) {
      if (buf[static_cast<std::size_t>(i)] != kGuard ||
          buf[buf.size() - 1 - static_cast<std::size_t>(i)] != kGuard) {
        return false;
      }
    }
    return true;
  }

  std::int64_t floats;
  std::vector<float> buf;
};

bool all_finite(const Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t[i])) {
      return false;
    }
  }
  return true;
}

// Oracle: walk the session's DAG running every op against private,
// per-node output buffers (no arena sharing at all). Any liveness-planning
// bug — two live activations aliasing, a buffer freed too early — shows up
// as a bitwise divergence from this walk.
Tensor run_per_op_oracle(const InferenceSession& session, const Tensor& x) {
  std::vector<Tensor> outs;
  for (std::int64_t i = 0; i < session.num_ops(); ++i) {
    const OpPlan& op = session.op(i);
    std::vector<const float*> inputs;
    for (const std::int64_t j : session.op_inputs(i)) {
      inputs.push_back(j == InferenceSession::kModelInput
                           ? x.raw()
                           : outs[static_cast<std::size_t>(j)].raw());
    }
    Tensor y({op.output_shape().c, op.output_shape().h, op.output_shape().w});
    std::vector<float> ws(
        static_cast<std::size_t>(op.workspace_bytes() / sizeof(float)));
    op.run_inputs(std::span<const float* const>(inputs.data(), inputs.size()),
                  y.raw(), ws);
    outs.push_back(std::move(y));
  }
  return outs.back();
}

TEST(InferenceSession, Resnet20SessionMatchesPerOpOracleBitwise) {
  const ModelSpec model = make_resnet20_cifar();
  const auto weights = random_model_weights(model, 801);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, {}, options);
  ASSERT_EQ(session.num_ops(),
            static_cast<std::int64_t>(model.layers.size()));

  Rng rng(802);
  const OpShape& in = session.input_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);

  PoisonedWorkspace ws(session.workspace_bytes());
  Tensor y({session.output_shape().c, session.output_shape().h,
            session.output_shape().w});
  session.run(x, &y, ws.span());
  EXPECT_TRUE(ws.guards_intact());
  EXPECT_TRUE(all_finite(y));

  const Tensor oracle = run_per_op_oracle(session, x);
  EXPECT_EQ(Tensor::max_abs_diff(y, oracle), 0.0);
}

TEST(InferenceSession, ResidualArenaIsSmallerThanPrivateBuffers) {
  const ModelSpec model = make_resnet20_cifar();
  const auto weights = random_model_weights(model, 803);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, {}, options);

  std::int64_t total = 0;
  std::int64_t largest = 0;
  for (std::int64_t i = 0; i + 1 < session.num_ops(); ++i) {
    total += session.op(i).output_shape().floats();
    largest = std::max(largest, session.op(i).output_shape().floats());
  }
  EXPECT_GE(session.arena_floats(), largest);
  // Liveness reuse must keep the arena a small multiple of one activation,
  // nowhere near the sum of all of them (ResNet-20 has ~60 intermediates).
  EXPECT_LT(session.arena_floats(), total / 10);
}

TEST(InferenceSession, LinearChainPlansPingPongAutomatically) {
  // A uniform dense chain needs exactly two live blocks at any moment, so
  // the liveness planner must rediscover the classic ping-pong layout.
  ModelSpec chain;
  chain.name = "chain";
  const ConvShape s = ConvShape::same(6, 6, 10, 3);
  for (int i = 0; i < 5; ++i) {
    chain.layers.push_back(
        LayerSpec::make_conv("conv" + std::to_string(i), s));
  }
  const auto weights = random_model_weights(chain, 804);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), chain, weights, {}, options);
  const std::int64_t act = OpShape{s.n, s.out_h(), s.out_w()}.floats();
  EXPECT_EQ(session.arena_floats(), 2 * act);
}

// A chainable convolution-only trunk with a decomposed middle layer: the
// decision list is hand-built (the structs are plain data), exactly what a
// codesign pass emits for a pure convolution inventory.
struct ConvTrunk {
  ModelSpec model;
  std::vector<LayerWeights> weights;
  std::vector<LayerDecision> decisions;
};

ConvTrunk make_conv_trunk(Rng& rng) {
  ConvTrunk net;
  net.model.name = "conv-trunk";
  const ConvShape shapes[] = {
      ConvShape::same(4, 8, 12, 3),     // kept dense
      ConvShape::same(8, 8, 12, 3, 2),  // decomposed
      ConvShape::same(8, 6, 6, 3),      // kept dense
  };
  for (const ConvShape& s : shapes) {
    net.model.layers.push_back(LayerSpec::make_conv(
        "conv" + std::to_string(net.model.layers.size()), s));
    LayerWeights w;
    w.conv_kernel = Tensor::random_uniform({s.c, s.n, s.r, s.s}, rng);
    net.weights.push_back(w);
    LayerDecision d;
    d.shape = s;
    net.decisions.push_back(d);
  }
  net.decisions[1].decomposed = true;
  net.decisions[1].ranks = {4, 4};
  return net;
}

TEST(InferenceSession, ConvTrunkMatchesHandStagedChainBitwise) {
  Rng rng(601);
  const ConvTrunk net = make_conv_trunk(rng);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;  // pin so the oracle can match it
  const InferenceSession session = InferenceSession::compile(
      make_a100(), net.model, net.weights, net.decisions, options);
  ASSERT_EQ(session.num_ops(), 3);
  EXPECT_FALSE(dynamic_cast<const ConvPlan&>(session.op(0)).decomposed());
  EXPECT_TRUE(dynamic_cast<const ConvPlan&>(session.op(1)).decomposed());

  const OpShape& in = session.input_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);

  // Oracle: the same chain through standalone plans. The fused Tucker
  // plan is bit-identical to the staged im2col pipeline, and the dense
  // layers are im2col, so the whole chain must match bitwise.
  const auto dense = [&](std::size_t layer, const Tensor& input) {
    return compile_conv_plan({.shape = net.decisions[layer].shape,
                              .algo = ConvAlgo::kIm2col},
                             net.weights[layer].conv_kernel)
        ->run(input);
  };
  const Tensor a0 = dense(0, x);
  const TuckerFactors f = tucker_decompose(net.weights[1].conv_kernel,
                                           net.decisions[1].ranks);
  const Tensor a1 = compile_tucker_plan({.shape = net.decisions[1].shape,
                                         .exec = TuckerExec::kStaged},
                                        f)
                        ->run(a0);
  const Tensor expected = dense(2, a1);

  const Tensor y = session.run(x);
  ASSERT_EQ(y.dims(), expected.dims());
  EXPECT_EQ(Tensor::max_abs_diff(y, expected), 0.0);
}

TEST(InferenceSession, ConvTrunkWorkspaceIsExactUnderPoisonAndGuards) {
  Rng rng(602);
  const ConvTrunk net = make_conv_trunk(rng);
  const InferenceSession session = InferenceSession::compile(
      make_a100(), net.model, net.weights, net.decisions);

  const OpShape& in = session.input_shape();
  const OpShape& out = session.output_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);

  PoisonedWorkspace ws(session.workspace_bytes());
  Tensor y({out.c, out.h, out.w});
  session.run(x, &y, ws.span());
  EXPECT_TRUE(ws.guards_intact());
  EXPECT_TRUE(all_finite(y));

  std::vector<float> small(static_cast<std::size_t>(ws.floats - 1));
  EXPECT_THROW(session.run(x, &y, small), Error);
}

TEST(InferenceSession, ConvTrunkValidation) {
  Rng rng(604);
  // Non-chaining layers: layer 1's C differs from layer 0's N.
  ModelSpec broken;
  broken.name = "broken-trunk";
  broken.layers.push_back(
      LayerSpec::make_conv("conv0", ConvShape::same(4, 8, 12, 3)));
  broken.layers.push_back(
      LayerSpec::make_conv("conv1", ConvShape::same(16, 8, 12, 3)));
  std::vector<LayerWeights> weights(2);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const ConvShape& s = broken.layers[i].conv;
    weights[i].conv_kernel =
        Tensor::random_uniform({s.c, s.n, s.r, s.s}, rng);
  }
  EXPECT_THROW(InferenceSession::compile(make_a100(), broken, weights),
               Error);

  // One LayerWeights entry per layer is required.
  const ConvTrunk net = make_conv_trunk(rng);
  EXPECT_THROW(InferenceSession::compile(make_a100(), net.model, {}), Error);
  const std::vector<LayerWeights> short_weights(net.weights.begin(),
                                                net.weights.end() - 1);
  EXPECT_THROW(
      InferenceSession::compile(make_a100(), net.model, short_weights),
      Error);
}

TEST(InferenceSession, ConcatDagWithFanOutMatchesOracle) {
  // conv0 feeds two branches whose outputs concat — fan-out, channel-wise
  // join, then a ReLU tail. Exercises explicit DAG edges beyond residuals.
  ModelSpec model;
  model.name = "concat-dag";
  model.layers.push_back(
      LayerSpec::make_conv("conv0", ConvShape::same(3, 4, 8, 3)));
  LayerSpec branch_a =
      LayerSpec::make_conv("branch_a", ConvShape::same(4, 3, 8, 3));
  branch_a.inputs = {0};
  model.layers.push_back(branch_a);
  LayerSpec branch_b =
      LayerSpec::make_conv("branch_b", ConvShape::same(4, 2, 8, 1));
  branch_b.inputs = {0};
  model.layers.push_back(branch_b);
  model.layers.push_back(LayerSpec::make_elementwise(
      "concat", 5.0 * 8 * 8, EltOp::kConcat, {1, 2}));
  model.layers.push_back(LayerSpec::make_elementwise("relu", 5.0 * 8 * 8));

  const auto weights = random_model_weights(model, 805);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, {}, options);
  ASSERT_EQ(session.output_shape(), (OpShape{5, 8, 8}));

  Rng rng(806);
  const Tensor x = Tensor::random_uniform({3, 8, 8}, rng);
  const Tensor y = session.run(x);
  EXPECT_EQ(Tensor::max_abs_diff(y, run_per_op_oracle(session, x)), 0.0);
}

TEST(InferenceSession, BatchedRunMatchesPerImageAcrossThreadCounts) {
  const int saved = num_threads();
  const ModelSpec model = make_resnet20_cifar();
  const auto weights = random_model_weights(model, 807);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, {}, options);

  Rng rng(808);
  const std::int64_t batch = 3;
  const OpShape& in = session.input_shape();
  const OpShape& out = session.output_shape();
  const Tensor x = Tensor::random_uniform({batch, in.c, in.h, in.w}, rng);
  Tensor y({batch, out.c, out.h, out.w});
  std::vector<float> ws(static_cast<std::size_t>(
      session.batched_workspace_bytes(batch) / sizeof(float)));
  session.run_batched(x, &y, ws);

  const std::int64_t x_stride = in.floats();
  const std::int64_t y_stride = out.floats();
  for (std::int64_t b = 0; b < batch; ++b) {
    Tensor xb({in.c, in.h, in.w});
    std::copy(x.raw() + b * x_stride, x.raw() + (b + 1) * x_stride, xb.raw());
    const Tensor yb = session.run(xb);
    for (std::int64_t i = 0; i < y_stride; ++i) {
      ASSERT_EQ(y[b * y_stride + i], yb[i]) << "image " << b;
    }
  }

  for (const int nt : {1, 4}) {
    set_num_threads(nt);
    Tensor again({batch, out.c, out.h, out.w});
    session.run_batched(x, &again, ws);
    EXPECT_EQ(Tensor::max_abs_diff(y, again), 0.0) << "threads=" << nt;
  }
  set_num_threads(saved);
}

TEST(InferenceSession, OutputsBitwiseAcrossThreadsAndArenaWidths) {
  // The GEMM's tile split and the fused band's patch build both follow the
  // region width; none of them may change a served output. ResNet-20's
  // 32×32 planes give every GEMM enough columns to split.
  const int saved_threads = num_threads();
  const ModelSpec model = make_resnet20_cifar();
  const auto weights = random_model_weights(model, 815);
  std::vector<LayerDecision> half_ranks;
  for (const ConvShape& shape : model.decomposable_conv_shapes()) {
    LayerDecision d;
    d.shape = shape;
    d.decomposed = true;
    d.ranks = {std::max<std::int64_t>(shape.c / 2, 1),
               std::max<std::int64_t>(shape.n / 2, 1)};
    half_ranks.push_back(d);
  }
  struct Variant {
    const char* label;
    TuckerExec exec;
    bool tucker;
  };
  const Variant variants[] = {{"fused", TuckerExec::kFused, true},
                              {"staged", TuckerExec::kStaged, true},
                              {"dense", TuckerExec::kFused, false}};
  Rng rng(816);
  const Tensor x = Tensor::random_uniform({3, 32, 32}, rng);
  for (const Variant& v : variants) {
    SessionOptions options;
    options.dense_algo = ConvAlgo::kIm2col;
    options.tucker_core_algo = ConvAlgo::kIm2col;
    options.tucker_exec = v.exec;
    const InferenceSession session = InferenceSession::compile(
        make_a100(), model, weights,
        v.tucker ? half_ranks : std::vector<LayerDecision>{}, options);
    std::vector<float> ws(
        static_cast<std::size_t>(session.workspace_bytes() / sizeof(float)));
    const OpShape& out = session.output_shape();
    set_num_threads(1);
    set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = 1});
    Tensor expected({out.c, out.h, out.w});
    session.run(x, &expected, ws);
    ASSERT_TRUE(all_finite(expected)) << v.label;
    for (const int threads : {1, 2, 4}) {
      for (const int intra_op : {1, 2}) {
        set_num_threads(threads);
        set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = intra_op});
        Tensor y({out.c, out.h, out.w});
        session.run(x, &y, ws);
        EXPECT_EQ(Tensor::max_abs_diff(y, expected), 0.0)
            << v.label << " threads=" << threads << " intra_op=" << intra_op;
      }
    }
  }
  set_num_threads(saved_threads);
  set_arena_config(ArenaConfig{});  // back to the env/default resolution
}

TEST(InferenceSession, CachedRecompileSharesPlansAndStaysBitIdentical) {
  const ModelSpec model = make_resnet20_cifar();
  const auto weights = random_model_weights(model, 809);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;

  PlanCache::instance().clear();
  const InferenceSession cold = InferenceSession::compile(
      make_a100(), model, weights, {}, options);
  const PlanCache::Stats after_cold = PlanCache::instance().stats();
  EXPECT_GT(after_cold.misses, 0);
  EXPECT_GT(after_cold.entries, 0);
  // Same-shape layers carry different weights, so the fingerprint must keep
  // every one of them a distinct entry — no intra-compile aliasing.
  EXPECT_EQ(after_cold.hits, 0);
  EXPECT_EQ(after_cold.entries, after_cold.misses);

  // Recompiling the identical model must hit on every single conv plan.
  const InferenceSession cached = InferenceSession::compile(
      make_a100(), model, weights, {}, options);
  const PlanCache::Stats after_cached = PlanCache::instance().stats();
  EXPECT_EQ(after_cached.misses, after_cold.misses);
  EXPECT_EQ(after_cached.entries, after_cold.entries);
  EXPECT_EQ(after_cached.hits, after_cold.misses);

  Rng rng(810);
  const OpShape& in = cold.input_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(cold.run(x), cached.run(x)), 0.0);

  // Same descriptor, different weights: the fingerprint must keep the
  // entries apart.
  const auto other = random_model_weights(model, 811);
  const InferenceSession different = InferenceSession::compile(
      make_a100(), model, other, {}, options);
  EXPECT_GT(PlanCache::instance().stats().entries, after_cached.entries);
  EXPECT_GT(Tensor::max_abs_diff(cold.run(x), different.run(x)), 0.0);
}

TEST(InferenceSession, DecisionListValidation) {
  const ModelSpec model = make_resnet20_cifar();
  const auto weights = random_model_weights(model, 812);

  // Wrong count: neither per-conv nor per-decomposable-conv.
  std::vector<LayerDecision> wrong_count(3);
  for (auto& d : wrong_count) {
    d.shape = ConvShape::same(16, 16, 32, 3);
  }
  EXPECT_THROW(InferenceSession::compile(make_a100(), model, weights,
                                         wrong_count),
               Error);

  // Right count, wrong shape at entry 0.
  std::vector<LayerDecision> wrong_shape(
      model.decomposable_conv_shapes().size());
  for (std::size_t i = 0; i < wrong_shape.size(); ++i) {
    wrong_shape[i].shape = model.decomposable_conv_shapes()[i];
  }
  wrong_shape[0].shape.c += 1;
  EXPECT_THROW(InferenceSession::compile(make_a100(), model, weights,
                                         wrong_shape),
               Error);

  // Missing BN weights throw with the layer's name in the message.
  auto incomplete = weights;
  for (auto& w : incomplete) {
    w.bn_scale = Tensor();
    w.bn_shift = Tensor();
  }
  EXPECT_THROW(InferenceSession::compile(make_a100(), model, incomplete),
               Error);
}

// The acceptance walk: the full ResNet-18 inventory — 7×7 stem with its
// maxpool, residual stages with downsample projections, global pool, FC —
// compiled with a real codesign decision list into one session, run end to
// end allocation-free under poison+guards, bit-identical across thread
// counts and across cached vs cold compiles. The decision list is taken as
// codesign produced it: the 256/512-channel stages factorize at full width
// (the tridiagonal eigensolver made that a sub-second affair; the old
// Jacobi path cost tens of seconds per wide stage, so these tests used to
// clamp decomposition to ≤128 channels), and the cold compile is
// time-bounded so an O(C³)-serial regression fails CI instead of hanging
// it.
TEST(InferenceSession, FullResnet18EndToEndAtFullWidth) {
  using Clock = std::chrono::steady_clock;
  const DeviceSpec device = make_a100();
  const ModelSpec model = make_resnet18();
  const auto weights = random_model_weights(model, 813);

  CodesignOptions cd_opts;
  cd_opts.budget = 0.65;  // paper §7.2 budget for ResNet-18
  const CodesignResult codesign =
      run_codesign(device, model.decomposable_conv_shapes(), cd_opts);
  ASSERT_EQ(codesign.layers.size(), model.decomposable_conv_shapes().size());
  const std::vector<LayerDecision>& decisions = codesign.layers;

  // The paper budget must reach into the wide stages — otherwise this test
  // silently stops covering full-width factorization.
  std::int64_t wide_decomposed = 0;
  for (const LayerDecision& d : decisions) {
    wide_decomposed +=
        d.decomposed && (d.shape.c >= 256 || d.shape.n >= 256) ? 1 : 0;
  }
  EXPECT_GT(wide_decomposed, 0);

  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;

  PlanCache::instance().clear();
  const auto t_cold = Clock::now();
  const InferenceSession session = InferenceSession::compile(
      device, model, weights, decisions, options);
  const double cold_s =
      std::chrono::duration<double>(Clock::now() - t_cold).count();
  // Generous CI budget (slow runners, single-thread matrices, sanitizer
  // builds): release-mode on one core measures a few seconds. The retained
  // Jacobi baseline needs minutes at these widths, so the bound still
  // catches any return of the serial path.
  EXPECT_LT(cold_s, 120.0);
  ASSERT_EQ(session.num_ops(),
            static_cast<std::int64_t>(model.layers.size()));
  EXPECT_EQ(session.input_shape(), (OpShape{3, 224, 224}));
  EXPECT_EQ(session.output_shape(), (OpShape{1000, 1, 1}));

  // At the paper's 65% budget the codesign pass must decompose something,
  // and the session must compile those layers as Tucker pipelines.
  std::int64_t decomposed = 0;
  for (std::int64_t i = 0; i < session.num_ops(); ++i) {
    const auto* conv = dynamic_cast<const ConvPlan*>(&session.op(i));
    decomposed += conv != nullptr && conv->decomposed() ? 1 : 0;
  }
  EXPECT_GT(decomposed, 0);

  Rng rng(814);
  const Tensor x = Tensor::random_uniform({3, 224, 224}, rng);
  PoisonedWorkspace ws(session.workspace_bytes());
  Tensor y({1000, 1, 1});
  session.run(x, &y, ws.span());
  EXPECT_TRUE(ws.guards_intact());
  EXPECT_TRUE(all_finite(y));

  // Bit-identical across thread counts.
  const int saved = num_threads();
  for (const int nt : {1, 4}) {
    set_num_threads(nt);
    ws.poison();
    Tensor again({1000, 1, 1});
    session.run(x, &again, ws.span());
    EXPECT_EQ(Tensor::max_abs_diff(y, again), 0.0) << "threads=" << nt;
  }
  set_num_threads(saved);

  // Bit-identical across a cached recompile.
  const InferenceSession cached = InferenceSession::compile(
      device, model, weights, decisions, options);
  ws.poison();
  Tensor y2({1000, 1, 1});
  cached.run(x, &y2, ws.span());
  EXPECT_EQ(Tensor::max_abs_diff(y, y2), 0.0);
}

// ---------------------------------------------------------------------------
// Fused steps. run() and run_batched() walk the step list, where a
// convolution runs with the BN, ReLU and 2-input add that only it feeds;
// the op view keeps one plan per layer. The two walks must agree bitwise.

bool same_bits(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

// run() and run_batched() over `images` random inputs at 1, 2 and 4 threads,
// each image bitwise equal to the op-by-op walk of the op view.
void expect_steps_match_op_walk(const InferenceSession& session,
                                std::int64_t images, std::uint64_t seed) {
  const OpShape in = session.input_shape();
  const OpShape out = session.output_shape();
  Rng rng(seed);
  const Tensor xb =
      Tensor::random_uniform({images, in.c, in.h, in.w}, rng);
  std::vector<Tensor> xs;
  std::vector<Tensor> oracle;
  for (std::int64_t b = 0; b < images; ++b) {
    Tensor x({in.c, in.h, in.w});
    std::copy(xb.raw() + b * in.floats(), xb.raw() + (b + 1) * in.floats(),
              x.raw());
    oracle.push_back(run_per_op_oracle(session, x));
    xs.push_back(std::move(x));
  }
  const int saved = num_threads();
  for (const int nt : {1, 2, 4}) {
    set_num_threads(nt);
    PoisonedWorkspace ws(session.workspace_bytes());
    for (std::int64_t b = 0; b < images; ++b) {
      Tensor y({out.c, out.h, out.w});
      session.run(xs[static_cast<std::size_t>(b)], &y, ws.span());
      EXPECT_TRUE(same_bits(y.raw(), oracle[static_cast<std::size_t>(b)].raw(),
                            out.floats()))
          << "run, image " << b << ", threads=" << nt;
    }
    EXPECT_TRUE(ws.guards_intact());
    PoisonedWorkspace bws(session.batched_workspace_bytes(images));
    Tensor yb({images, out.c, out.h, out.w});
    session.run_batched(xb, &yb, bws.span());
    EXPECT_TRUE(bws.guards_intact());
    for (std::int64_t b = 0; b < images; ++b) {
      EXPECT_TRUE(same_bits(yb.raw() + b * out.floats(),
                            oracle[static_cast<std::size_t>(b)].raw(),
                            out.floats()))
          << "run_batched, image " << b << ", threads=" << nt;
    }
  }
  set_num_threads(saved);
}

// A lower bound on the arena of any op-by-op walk: every op but the last
// holds its arena inputs and its output at once (the model input and the
// final output live outside the arena).
std::int64_t op_walk_arena_floor(const InferenceSession& session) {
  std::int64_t floor = 0;
  for (std::int64_t i = 0; i + 1 < session.num_ops(); ++i) {
    std::int64_t live = session.op(i).output_shape().floats();
    for (const std::int64_t j : session.op_inputs(i)) {
      if (j != InferenceSession::kModelInput) {
        live += session.op(j).output_shape().floats();
      }
    }
    floor = std::max(floor, live);
  }
  return floor;
}

struct Resnet18Build {
  DeviceSpec device = make_a100();
  ModelSpec model = make_resnet18();
  std::vector<LayerWeights> weights = random_model_weights(model, 821);
  std::vector<LayerDecision> decisions;

  Resnet18Build() {
    CodesignOptions opts;
    opts.budget = 0.65;
    decisions =
        run_codesign(device, model.decomposable_conv_shapes(), opts).layers;
  }

  InferenceSession compile(const SessionOptions& options) const {
    return InferenceSession::compile(device, model, weights, decisions,
                                     options);
  }
};

// ResNet-18's 60 ops run as 22 steps: 20 fused convolutions, the stem's
// among them with its max-pool, the global pool and the FC head.
void expect_resnet18_schedule(const InferenceSession& session) {
  EXPECT_EQ(session.num_ops(), 60);
  EXPECT_EQ(session.num_steps(), 22);
  EXPECT_LT(session.arena_floats(), op_walk_arena_floor(session));
}

TEST(FusedSteps, Resnet18FusedAndStagedTuckerEqualTheOpWalk) {
  const Resnet18Build net;
  for (const TuckerExec exec : {TuckerExec::kFused, TuckerExec::kStaged}) {
    SCOPED_TRACE(exec == TuckerExec::kFused ? "fused" : "staged");
    SessionOptions options;
    options.dense_algo = ConvAlgo::kIm2col;
    options.tucker_exec = exec;
    options.use_plan_cache = false;
    const InferenceSession session = net.compile(options);
    expect_resnet18_schedule(session);
    expect_steps_match_op_walk(session, 2, 822);
  }
}

TEST(FusedSteps, Resnet18CalibratedInt8EqualsTheOpWalk) {
  const Resnet18Build net;
  const QuantTable table =
      calibrate_quant(net.device, net.model, net.weights, net.decisions);
  ::setenv("TDC_INT8", "2", 1);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  options.use_plan_cache = false;
  options.quant = &table;
  const InferenceSession session = net.compile(options);
  ::unsetenv("TDC_INT8");
  // Both int8 plans carry the epilogue: dense and Tucker.
  std::int64_t dense_s8 = 0;
  std::int64_t tucker_s8 = 0;
  for (std::int64_t i = 0; i < session.num_ops(); ++i) {
    const auto* conv = dynamic_cast<const ConvPlan*>(&session.op(i));
    if (conv != nullptr && conv->quantized()) {
      ++(conv->decomposed() ? tucker_s8 : dense_s8);
    }
  }
  EXPECT_GT(dense_s8, 0);
  EXPECT_GT(tucker_s8, 0);
  expect_resnet18_schedule(session);
  expect_steps_match_op_walk(session, 2, 823);
}

TEST(FusedSteps, Resnet20DenseIm2colEqualsTheOpWalk) {
  const ModelSpec model = make_resnet20_cifar();
  const auto weights = random_model_weights(model, 824);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, {}, options);
  EXPECT_LT(session.num_steps(), session.num_ops());
  expect_steps_match_op_walk(session, 3, 825);
}

// Nothing here fuses beyond conv + BN: a BN with two consumers, a 3-input
// add, a concat and a BN whose producer is not a convolution.
TEST(FusedSteps, OnlySingleConsumerChainsFuse) {
  ModelSpec model;
  model.name = "no-fuse-dag";
  const auto conv = [&](const char* name, const ConvShape& shape,
                        std::int64_t input) {
    LayerSpec l = LayerSpec::make_conv(name, shape);
    if (input >= 0) {
      l.inputs = {input};  // the first layer reads the model input
    }
    model.layers.push_back(l);
  };
  const auto elt = [&](const char* name, EltOp op,
                       std::vector<std::int64_t> inputs) {
    model.layers.push_back(
        LayerSpec::make_elementwise(name, 0.0, op, std::move(inputs)));
  };
  conv("conv_a", ConvShape::same(3, 4, 8, 3), -1);     // 0
  elt("bn_a", EltOp::kBatchNorm, {0});                 // 1: two consumers
  elt("relu_a", EltOp::kRelu, {1});                    // 2
  conv("conv_b", ConvShape::same(4, 4, 8, 3), 1);      // 3
  elt("bn_b", EltOp::kBatchNorm, {3});                 // 4
  conv("conv_c", ConvShape::same(4, 4, 8, 1), 2);      // 5
  elt("add3", EltOp::kAdd, {4, 2, 5});                 // 6: three inputs
  elt("concat", EltOp::kConcat, {6, 1});               // 7
  elt("bn_c", EltOp::kBatchNorm, {7});                 // 8: non-conv producer
  conv("conv_d", ConvShape::same(8, 4, 8, 3), 8);      // 9
  const auto weights = random_model_weights(model, 826);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, {}, options);
  EXPECT_EQ(session.num_ops(), 10);
  // conv_a + bn_a and conv_b + bn_b fuse; the other six ops run alone.
  EXPECT_EQ(session.num_steps(), 8);
  expect_steps_match_op_walk(session, 3, 827);
}

// The step that writes the model output runs last even when a dead-end
// branch (an op nothing consumes) sits after its first op.
TEST(FusedSteps, OutputStepRunsAfterDeadEndBranches) {
  ModelSpec model;
  model.name = "dead-end";
  model.layers.push_back(
      LayerSpec::make_conv("conv_a", ConvShape::same(3, 4, 8, 3)));  // 0
  LayerSpec conv_b =
      LayerSpec::make_conv("conv_b", ConvShape::same(4, 4, 8, 3));
  conv_b.inputs = {0};
  model.layers.push_back(conv_b);  // 1
  model.layers.push_back(
      LayerSpec::make_elementwise("bn_b", 0.0, EltOp::kBatchNorm, {1}));  // 2
  LayerSpec dead = LayerSpec::make_conv("dead", ConvShape::same(4, 2, 8, 1));
  dead.inputs = {0};
  model.layers.push_back(dead);  // 3: nothing reads it
  model.layers.push_back(
      LayerSpec::make_elementwise("relu_b", 0.0, EltOp::kRelu, {2}));  // 4
  const auto weights = random_model_weights(model, 828);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, {}, options);
  EXPECT_EQ(session.num_steps(), 3);  // conv_a, dead, conv_b + bn + relu
  expect_steps_match_op_walk(session, 2, 829);
}

// ---------------------------------------------------------------------------
// Pooled steps. A max-pool that only a conv → BN (→ ReLU) chain feeds runs in
// that chain's step, in bands of pooled rows, when the conv plan pools
// (fp32 and int8 im2col).

// The ResNet-18 stem at 221×221 with 16 filters: odd convolution rows
// (111), 56 pooled rows, several bands per thread.
struct PooledStem {
  ConvShape shape = ConvShape::same(3, 16, 221, 7, 2);
  PoolDescriptor pool;
  Tensor kernel;
  Tensor scale;
  Tensor shift;
  Tensor x;

  PooledStem() {
    Rng rng(830);
    pool.in = OpShape{shape.n, shape.out_h(), shape.out_w()};
    pool.window_h = pool.window_w = 3;
    pool.stride_h = pool.stride_w = 2;
    pool.pad_h = pool.pad_w = 1;
    kernel = Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng,
                                    -0.2f, 0.2f);
    scale = Tensor::random_uniform({shape.n}, rng, 0.7f, 1.3f);
    shift = Tensor::random_uniform({shape.n}, rng, -0.1f, 0.1f);
    x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  }

  ConvEpilogue epilogue(bool relu, bool pooled) const {
    return ConvEpilogue{.scale = scale.raw(),
                        .shift = shift.raw(),
                        .relu = relu,
                        .pool = pooled ? &pool : nullptr};
  }

  std::unique_ptr<ConvPlan> compile(bool int8) const {
    if (!int8) {
      return compile_conv_plan(
          ConvDescriptor{.shape = shape, .algo = ConvAlgo::kIm2col}, kernel);
    }
    LayerQuant quant;
    quant.quantize = true;
    quant.input = choose_quant_params(0.0f, 1.0f);
    return compile_quantized_conv_plan(shape, kernel, quant);
  }

  // The separate passes: the unpooled step, then the pool plan.
  Tensor reference(const ConvPlan& plan, bool relu) const {
    Tensor t({shape.n, shape.out_h(), shape.out_w()});
    std::vector<float> ws(
        static_cast<std::size_t>(plan.workspace_bytes() / sizeof(float)));
    plan.run_with_epilogue(x.raw(), t.raw(), ws, epilogue(relu, false));
    Tensor y({shape.n, pool.out_h(), pool.out_w()});
    const float* in = t.raw();
    compile_pool_plan(pool)->run_inputs(
        std::span<const float* const>(&in, 1), y.raw(), {});
    return y;
  }

  // The pooled step on an exact-size poisoned workspace.
  Tensor pooled(const ConvPlan& plan, bool relu) const {
    const ConvEpilogue e = epilogue(relu, true);
    PoisonedWorkspace ws(plan.epilogue_workspace_bytes(e));
    Tensor y({shape.n, pool.out_h(), pool.out_w()});
    plan.run_with_epilogue(x.raw(), y.raw(), ws.span(), e);
    EXPECT_TRUE(ws.guards_intact());
    return y;
  }
};

struct RestoreRuntime {
  int threads = num_threads();
  ~RestoreRuntime() {
    set_num_threads(threads);
    set_arena_config(ArenaConfig{});
  }
};

TEST(FusedSteps, PooledStemBandsEqualTheUnpooledStepAndPool) {
  const PooledStem stem;
  const RestoreRuntime restore;
  for (const bool int8 : {false, true}) {
    for (const int threads : {1, 2, 4}) {
      set_num_threads(threads);
      const auto plan = stem.compile(int8);
      ASSERT_TRUE(plan->pools(stem.pool));
      // The band workspace is a fraction of the full patch matrix.
      EXPECT_LT(plan->epilogue_workspace_bytes(stem.epilogue(true, true)),
                plan->workspace_bytes());
      for (const bool relu : {true, false}) {
        const Tensor want = stem.reference(*plan, relu);
        const Tensor got = stem.pooled(*plan, relu);
        EXPECT_TRUE(same_bits(got.raw(), want.raw(), want.numel()))
            << (int8 ? "int8" : "fp32") << " threads=" << threads
            << " relu=" << relu;
      }
    }
  }
}

// The fp32 pooled step is one band-parallel region when its workspace holds
// a slot per thread; a plan compiled at one thread (one slot) runs its
// bands serially at any width. Both stay bitwise; an expired deadline
// throws from inside the region; a warm run allocates nothing.
TEST(FusedSteps, PooledStemRegionFollowsSlotsDeadlinesAndGuards) {
  const PooledStem stem;
  const RestoreRuntime restore;
  set_num_threads(1);
  const auto one_slot = stem.compile(false);
  const Tensor want = stem.reference(*one_slot, true);
  // The width is explicit: intra_op 0 would defer to TDC_INTRA_OP.
  set_num_threads(4);
  set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = 4});
  const auto wide = stem.compile(false);
  EXPECT_EQ(wide->epilogue_workspace_bytes(stem.epilogue(true, true)),
            4 * one_slot->epilogue_workspace_bytes(stem.epilogue(true, true)));

  std::int64_t regions = parallel_stats().pool_regions;
  EXPECT_TRUE(same_bits(stem.pooled(*wide, true).raw(), want.raw(),
                        want.numel()));
  EXPECT_EQ(parallel_stats().pool_regions - regions, 1);
  regions = parallel_stats().pool_regions;
  EXPECT_TRUE(same_bits(stem.pooled(*one_slot, true).raw(), want.raw(),
                        want.numel()));
  EXPECT_GT(parallel_stats().pool_regions - regions, 1);

  const ConvEpilogue e = stem.epilogue(true, true);
  Tensor y({stem.shape.n, stem.pool.out_h(), stem.pool.out_w()});
  {
    PoisonedWorkspace ws(wide->epilogue_workspace_bytes(e));
    bool expired = false;
    try {
      DeadlineScope scope(Deadline::after(0.0));
      wide->run_with_epilogue(stem.x.raw(), y.raw(), ws.span(), e);
    } catch (const Error& err) {
      expired = err.code() == ErrorCode::kDeadlineExceeded;
    }
    EXPECT_TRUE(expired);
    EXPECT_TRUE(ws.guards_intact());
  }

  // Which worker serves which band is not fixed, so a few rounds let every
  // thread's GEMM pack buffers grow first.
  PoisonedWorkspace ws(wide->epilogue_workspace_bytes(e));
  for (int round = 0; round < 8; ++round) {
    wide->run_with_epilogue(stem.x.raw(), y.raw(), ws.span(), e);
  }
  const bool saved_guard = alloc_guard_enabled();
  set_alloc_guard(true);
  const std::int64_t violations = alloc_guard_violations();
  {
    DenyAllocGuard guard("pooled stem test");
    EXPECT_NO_THROW(
        wide->run_with_epilogue(stem.x.raw(), y.raw(), ws.span(), e));
  }
  EXPECT_EQ(alloc_guard_violations(), violations);
  set_alloc_guard(saved_guard);
  EXPECT_TRUE(ws.guards_intact());
  EXPECT_TRUE(same_bits(y.raw(), want.raw(), want.numel()));
}

LayerSpec pool_layer(const char* name, std::int64_t input,
                     const PoolGeom& geom) {
  LayerSpec l = LayerSpec::make_pool(name, 0.0, 0.0, geom);
  l.inputs = {input};
  return l;
}

// A stem-shaped model: conv → BN → ReLU → max-pool, then conv → BN →
// max-pool (no ReLU) whose output feeds two convolutions. Both pools run
// inside their chain's step; a pool's own consumers do not matter.
TEST(FusedSteps, StemModelPoolsInsideItsSteps) {
  ModelSpec model;
  model.name = "pooled-stem";
  model.layers.push_back(
      LayerSpec::make_conv("conv1", ConvShape::same(3, 8, 61, 7, 2)));  // 0
  model.layers.push_back(
      LayerSpec::make_elementwise("bn1", 0.0, EltOp::kBatchNorm, {0}));  // 1
  model.layers.push_back(
      LayerSpec::make_elementwise("relu1", 0.0, EltOp::kRelu, {1}));  // 2
  model.layers.push_back(pool_layer("pool1", 2, PoolGeom{3, 2, 1}));  // 3
  LayerSpec conv2 = LayerSpec::make_conv("conv2", ConvShape::same(8, 8, 16, 3));
  conv2.inputs = {3};
  model.layers.push_back(conv2);  // 4
  model.layers.push_back(
      LayerSpec::make_elementwise("bn2", 0.0, EltOp::kBatchNorm, {4}));  // 5
  model.layers.push_back(pool_layer("pool2", 5, PoolGeom{2, 2, 0}));  // 6
  LayerSpec conv3 = LayerSpec::make_conv("conv3", ConvShape::same(8, 4, 8, 1));
  conv3.inputs = {6};
  model.layers.push_back(conv3);  // 7
  LayerSpec conv4 = LayerSpec::make_conv("conv4", ConvShape::same(8, 4, 8, 3));
  conv4.inputs = {6};
  model.layers.push_back(conv4);  // 8
  model.layers.push_back(
      LayerSpec::make_elementwise("add", 0.0, EltOp::kAdd, {7, 8}));  // 9
  const auto weights = random_model_weights(model, 831);
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, {}, options);
  // conv1..pool1, conv2..pool2, conv3, conv4, add.
  EXPECT_EQ(session.num_steps(), 5);
  expect_steps_match_op_walk(session, 3, 832);
}

// Pools that stay steps of their own: a max-pool whose input has a second
// consumer, an avg-pool, and a max-pool after a Tucker conv (the fused
// Tucker bands do not pool).
TEST(FusedSteps, PoolsStaySeparateUnlessAPoolingChainAloneFeedsThem) {
  ModelSpec model;
  model.name = "separate-pools";
  model.layers.push_back(
      LayerSpec::make_conv("conv_a", ConvShape::same(3, 4, 16, 3)));  // 0
  model.layers.push_back(
      LayerSpec::make_elementwise("bn_a", 0.0, EltOp::kBatchNorm, {0}));  // 1
  model.layers.push_back(
      LayerSpec::make_elementwise("relu_a", 0.0, EltOp::kRelu, {1}));  // 2
  model.layers.push_back(pool_layer("pool_a", 2, PoolGeom{3, 2, 1}));  // 3
  LayerSpec conv_b =
      LayerSpec::make_conv("conv_b", ConvShape::same(4, 4, 16, 3));
  conv_b.inputs = {2};  // relu_a's second consumer
  model.layers.push_back(conv_b);  // 4
  model.layers.push_back(
      LayerSpec::make_elementwise("bn_b", 0.0, EltOp::kBatchNorm, {4}));  // 5
  model.layers.push_back(
      pool_layer("avg_b", 5, PoolGeom{2, 2, 0, /*max_pool=*/false}));  // 6
  LayerSpec conv_t =
      LayerSpec::make_conv("conv_t", ConvShape::same(4, 4, 8, 3));
  conv_t.inputs = {3};
  model.layers.push_back(conv_t);  // 7
  model.layers.push_back(
      LayerSpec::make_elementwise("bn_t", 0.0, EltOp::kBatchNorm, {7}));  // 8
  model.layers.push_back(
      LayerSpec::make_elementwise("relu_t", 0.0, EltOp::kRelu, {8}));  // 9
  model.layers.push_back(pool_layer("pool_t", 9, PoolGeom{2, 2, 0}));  // 10
  const auto weights = random_model_weights(model, 833);
  std::vector<LayerDecision> decisions(3);
  decisions[0].shape = model.layers[0].conv;
  decisions[1].shape = model.layers[4].conv;
  decisions[2].shape = model.layers[7].conv;
  decisions[2].decomposed = true;
  decisions[2].ranks = {2, 2};
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, decisions, options);
  const auto* tucker = dynamic_cast<const ConvPlan*>(&session.op(7));
  ASSERT_NE(tucker, nullptr);
  EXPECT_TRUE(tucker->decomposed());
  EXPECT_FALSE(tucker->pools(PoolDescriptor{.in = tucker->output_shape()}));
  // conv_a..relu_a, pool_a, conv_b..bn_b, avg_b (a dead end),
  // conv_t..relu_t, pool_t.
  EXPECT_EQ(session.num_steps(), 6);
  expect_steps_match_op_walk(session, 3, 834);
}

}  // namespace
}  // namespace tdc
