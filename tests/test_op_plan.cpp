// Tests for the memory-bound op plans (exec/op_plans.h): pooling, inference
// batch-norm, bias, residual add, concat and the fully-connected head,
// checked against the autograd reference implementations (src/autograd/) and
// naive inline oracles, under NaN-poisoned guard-banded workspaces, with
// bit-reproducibility across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "autograd/batchnorm.h"
#include "autograd/layers.h"
#include "autograd/linear.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/op_plans.h"

namespace tdc {
namespace {

constexpr float kGuard = 12345.678f;
constexpr std::int64_t kGuardFloats = 64;

// Workspace of exactly plan->workspace_bytes(), bracketed by guard bands and
// poisoned with NaN (see test_conv_plan.cpp). The memory-bound plans all
// declare zero workspace, so the guard bands sit back to back — any scratch
// write at all trips them.
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

// Runs a single-input plan under poison+guards and verifies determinism
// across thread counts before handing the output back.
Tensor run_guarded(const OpPlan& plan, const Tensor& x) {
  PoisonedWorkspace ws(plan.workspace_bytes());
  Tensor y({plan.output_shape().c, plan.output_shape().h,
            plan.output_shape().w});
  plan.run(x, &y, ws.span());
  EXPECT_TRUE(ws.guards_intact());

  const int saved = num_threads();
  for (const int nt : {1, 3}) {
    set_num_threads(nt);
    ws.poison();
    Tensor again(y.dims());
    plan.run(x, &again, ws.span());
    EXPECT_EQ(Tensor::max_abs_diff(y, again), 0.0) << "threads=" << nt;
  }
  set_num_threads(saved);
  return y;
}

// [C, H, W] -> [1, C, H, W] for the batch-shaped autograd layers.
Tensor with_batch_dim(const Tensor& x) {
  return x.reshaped({1, x.dim(0), x.dim(1), x.dim(2)});
}

TEST(PoolPlan, MaxPool2x2MatchesAutogradBitwise) {
  Rng rng(701);
  const OpShape in{5, 12, 8};
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);

  PoolDescriptor d;
  d.in = in;
  const auto plan = compile_pool_plan(d);
  const Tensor y = run_guarded(*plan, x);

  MaxPool2x2 ref;
  const Tensor expected = ref.forward(with_batch_dim(x), /*train=*/false);
  ASSERT_EQ(y.numel(), expected.numel());
  EXPECT_EQ(Tensor::max_abs_diff(y, expected.reshaped(y.dims())), 0.0);
}

TEST(PoolPlan, PaddedStridedMaxPoolMatchesNaiveOracle) {
  // The ResNet stem geometry: 3×3 window, stride 2, padding 1; padding taps
  // are ignored (identical to -inf padding).
  Rng rng(702);
  const OpShape in{3, 9, 11};
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);
  PoolDescriptor d;
  d.in = in;
  d.window_h = d.window_w = 3;
  d.stride_h = d.stride_w = 2;
  d.pad_h = d.pad_w = 1;
  const auto plan = compile_pool_plan(d);
  const Tensor y = run_guarded(*plan, x);

  ASSERT_EQ(plan->output_shape(), (OpShape{3, 5, 6}));
  for (std::int64_t c = 0; c < in.c; ++c) {
    for (std::int64_t oh = 0; oh < 5; ++oh) {
      for (std::int64_t ow = 0; ow < 6; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        for (std::int64_t r = 0; r < 3; ++r) {
          for (std::int64_t s = 0; s < 3; ++s) {
            const std::int64_t ih = oh * 2 - 1 + r;
            const std::int64_t iw = ow * 2 - 1 + s;
            if (ih >= 0 && ih < in.h && iw >= 0 && iw < in.w) {
              best = std::max(best, x(c, ih, iw));
            }
          }
        }
        ASSERT_EQ(y(c, oh, ow), best) << c << "," << oh << "," << ow;
      }
    }
  }
}

TEST(PoolPlan, MaxInteriorFastPathMatchesGenericLoopBitwise) {
  // Windows wholly inside the image skip the per-output clipping and, at
  // column strides 1 and 2, run 8 outputs per vector. Every output must
  // equal the clipped std::max(best, v) loop bit for bit on inputs salted
  // with NaN, ±inf and ±0: NaN taps are skipped, an all-NaN window gives
  // −inf, and of tied ±0 the first in window order is kept. Stride 3,
  // padded borders and widths too narrow for a vector take the generic
  // loop and are checked alongside, at 1 and 3 threads.
  Rng rng(704);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto bits = [](float v) {
    std::uint32_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  const int saved = num_threads();
  int checked = 0;
  for (const std::int64_t stride : {1, 2, 3}) {
    for (const std::int64_t window : {1, 2, 3, 5}) {
      for (const std::int64_t pad : {0, 1, 2}) {
        for (const std::int64_t w : {5, 16, 29, 40}) {
          PoolDescriptor d;
          d.in = OpShape{2, 9, w};
          d.window_h = d.window_w = window;
          d.stride_h = d.stride_w = stride;
          d.pad_h = d.pad_w = pad;
          if (!d.valid()) {
            continue;
          }
          Tensor x = Tensor::random_uniform({d.in.c, d.in.h, d.in.w}, rng,
                                            -1.0f, 1.0f);
          for (std::int64_t i = 0; i < x.numel(); ++i) {
            const double u = rng.uniform();
            if (u < 0.06) {
              x[i] = nan;
            } else if (u < 0.09) {
              x[i] = -inf;
            } else if (u < 0.11) {
              x[i] = inf;
            } else if (u < 0.25) {
              x[i] = rng.uniform() < 0.5 ? 0.0f : -0.0f;
            }
          }
          if (w == 16) {
            // A whole NaN row: its windows have no ordered tap at all.
            for (std::int64_t iw = 0; iw < w; ++iw) {
              x(0, 4, iw) = nan;
              x(0, 5, iw) = nan;
            }
          }
          const auto plan = compile_pool_plan(d);
          const OpShape out = plan->output_shape();
          for (const int nt : {1, 3}) {
            set_num_threads(nt);
            Tensor y({out.c, out.h, out.w});
            plan->run(x, &y, std::span<float>());
            for (std::int64_t c = 0; c < out.c; ++c) {
              for (std::int64_t oh = 0; oh < out.h; ++oh) {
                for (std::int64_t ow = 0; ow < out.w; ++ow) {
                  float best = -inf;
                  for (std::int64_t r = 0; r < window; ++r) {
                    for (std::int64_t s = 0; s < window; ++s) {
                      const std::int64_t ih = oh * stride - pad + r;
                      const std::int64_t iw = ow * stride - pad + s;
                      if (ih >= 0 && ih < d.in.h && iw >= 0 &&
                          iw < d.in.w) {
                        best = std::max(best, x(c, ih, iw));
                      }
                    }
                  }
                  ASSERT_EQ(bits(y(c, oh, ow)), bits(best))
                      << "stride=" << stride << " window=" << window
                      << " pad=" << pad << " w=" << w << " threads=" << nt
                      << " at " << c << "," << oh << "," << ow;
                }
              }
            }
          }
          ++checked;
        }
      }
    }
  }
  set_num_threads(saved);
  EXPECT_EQ(checked, 108);  // every combination with pad < window
}

TEST(PoolPlan, AvgPoolExcludesPaddingFromTheDivisor) {
  const OpShape in{1, 4, 4};
  Tensor x({in.c, in.h, in.w});
  x.fill(2.0f);
  PoolDescriptor d;
  d.in = in;
  d.window_h = d.window_w = 3;
  d.stride_h = d.stride_w = 3;
  d.pad_h = d.pad_w = 1;
  d.kind = PoolKind::kAvg;
  const auto plan = compile_pool_plan(d);
  const Tensor y = run_guarded(*plan, x);
  // Every window averages only its in-bounds taps, so a constant input must
  // reproduce the constant exactly regardless of window clipping.
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(y[i], 2.0f);
  }
}

TEST(GlobalPoolPlan, AvgMatchesAutogradBitwise) {
  Rng rng(703);
  const OpShape in{7, 6, 9};
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);
  const auto plan = compile_global_pool_plan(in);
  const Tensor y = run_guarded(*plan, x);

  GlobalAvgPool ref;
  const Tensor expected = ref.forward(with_batch_dim(x), /*train=*/false);
  ASSERT_EQ(y.numel(), expected.numel());
  for (std::int64_t c = 0; c < in.c; ++c) {
    ASSERT_EQ(y[c], expected[c]) << "channel " << c;
  }
}

TEST(EltwisePlan, ReluMatchesAutograd) {
  Rng rng(704);
  const OpShape shape{4, 5, 6};
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const auto plan = compile_relu_plan(shape);
  const Tensor y = run_guarded(*plan, x);

  ReLU ref;
  const Tensor expected = ref.forward(x, /*train=*/false);
  EXPECT_EQ(Tensor::max_abs_diff(y, expected), 0.0);
}

TEST(EltwisePlan, BatchNormMatchesAutogradEvalForward) {
  Rng rng(705);
  const OpShape shape{6, 7, 5};
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor gamma = Tensor::random_uniform({shape.c}, rng, 0.5f, 1.5f);
  const Tensor beta = Tensor::random_uniform({shape.c}, rng, -0.5f, 0.5f);

  // Fresh BatchNorm2d running stats are mean 0 / var 1; set γ and β through
  // the param interface and compare eval-mode forward against the folded
  // inference plan.
  BatchNorm2d ref("bn", shape.c);
  ref.params()[0]->value = gamma;
  ref.params()[1]->value = beta;
  const Tensor expected = ref.forward(with_batch_dim(x), /*train=*/false);

  const FoldedBatchNorm folded = fold_batchnorm(
      gamma, beta, Tensor({shape.c}), Tensor::full({shape.c}, 1.0f));
  const auto plan =
      compile_batchnorm_plan(shape, folded.scale, folded.shift);
  const Tensor y = run_guarded(*plan, x);
  EXPECT_LT(Tensor::rel_error(y, expected.reshaped(y.dims())), 1e-5);
}

TEST(EltwisePlan, FoldedBatchNormMatchesDefinitionWithRealStats) {
  Rng rng(706);
  const OpShape shape{5, 4, 4};
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor gamma = Tensor::random_uniform({shape.c}, rng, 0.5f, 1.5f);
  const Tensor beta = Tensor::random_uniform({shape.c}, rng, -0.5f, 0.5f);
  const Tensor mean = Tensor::random_uniform({shape.c}, rng, -0.3f, 0.3f);
  const Tensor var = Tensor::random_uniform({shape.c}, rng, 0.2f, 2.0f);
  const double eps = 1e-5;

  const FoldedBatchNorm folded = fold_batchnorm(gamma, beta, mean, var, eps);
  const auto plan = compile_batchnorm_plan(shape, folded.scale, folded.shift);
  const Tensor y = run_guarded(*plan, x);

  const std::int64_t plane = shape.h * shape.w;
  for (std::int64_t c = 0; c < shape.c; ++c) {
    const double inv_std = 1.0 / std::sqrt(static_cast<double>(var[c]) + eps);
    for (std::int64_t i = 0; i < plane; ++i) {
      const double expected =
          static_cast<double>(gamma[c]) *
              (static_cast<double>(x[c * plane + i]) - mean[c]) * inv_std +
          beta[c];
      ASSERT_NEAR(y[c * plane + i], expected, 1e-4);
    }
  }
}

TEST(EltwisePlan, BatchNormFusedReluMatchesSeparatePlansBitwise) {
  Rng rng(707);
  const OpShape shape{4, 6, 6};
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor scale = Tensor::random_uniform({shape.c}, rng, -1.5f, 1.5f);
  const Tensor shift = Tensor::random_uniform({shape.c}, rng, -0.5f, 0.5f);

  const auto fused = compile_batchnorm_plan(shape, scale, shift,
                                            /*fuse_relu=*/true);
  const auto bn = compile_batchnorm_plan(shape, scale, shift);
  const auto relu = compile_relu_plan(shape);
  EXPECT_EQ(Tensor::max_abs_diff(run_guarded(*fused, x),
                                 relu->run(bn->run(x))),
            0.0);
}

TEST(EltwisePlan, ResidualAddAndAddReluJoinInputs) {
  Rng rng(709);
  const OpShape shape{4, 5, 5};
  const Tensor a = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor b = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor c3 = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);

  const auto add = compile_add_plan(shape);
  PoisonedWorkspace ws(add->workspace_bytes());
  Tensor y({shape.c, shape.h, shape.w});
  const float* two[] = {a.raw(), b.raw()};
  add->run_inputs(std::span<const float* const>(two, 2), y.raw(), ws.span());
  EXPECT_TRUE(ws.guards_intact());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(y[i], a[i] + b[i]);
  }

  // relu(main + skip) — the ResNet join.
  const auto add_relu = compile_add_plan(shape, 2, /*fuse_relu=*/true);
  Tensor yr({shape.c, shape.h, shape.w});
  add_relu->run_inputs(std::span<const float* const>(two, 2), yr.raw(),
                       ws.span());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(yr[i], std::max(a[i] + b[i], 0.0f));
  }

  // Three-way join.
  const auto add3 = compile_add_plan(shape, 3);
  const float* three[] = {a.raw(), b.raw(), c3.raw()};
  Tensor y3({shape.c, shape.h, shape.w});
  add3->run_inputs(std::span<const float* const>(three, 3), y3.raw(),
                   ws.span());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(y3[i], a[i] + b[i] + c3[i]);
  }
}

TEST(ConcatPlan, StacksChannelsInInputOrder) {
  Rng rng(710);
  const OpShape in1{2, 4, 5};
  const OpShape in2{3, 4, 5};
  const Tensor a = Tensor::random_uniform({in1.c, in1.h, in1.w}, rng);
  const Tensor b = Tensor::random_uniform({in2.c, in2.h, in2.w}, rng);
  const auto plan = compile_concat_plan({in1, in2});
  ASSERT_EQ(plan->output_shape(), (OpShape{5, 4, 5}));

  PoisonedWorkspace ws(plan->workspace_bytes());
  Tensor y({5, 4, 5});
  const float* ins[] = {a.raw(), b.raw()};
  plan->run_inputs(std::span<const float* const>(ins, 2), y.raw(), ws.span());
  EXPECT_TRUE(ws.guards_intact());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(y[i], a[i]);
  }
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    ASSERT_EQ(y[a.numel() + i], b[i]);
  }
  EXPECT_THROW(compile_concat_plan({in1, OpShape{2, 3, 5}}), Error);
}

TEST(FullyConnectedPlan, MatchesAutogradLinearForward) {
  Rng rng(711);
  const std::int64_t in = 37;
  const std::int64_t out = 11;
  Linear ref("fc", in, out, rng);
  ref.params()[1]->value = Tensor::random_uniform({out}, rng);  // bias

  const Tensor x = Tensor::random_uniform({in}, rng);
  const auto plan = compile_fc_plan(ref.params()[0]->value,
                                    ref.params()[1]->value);
  ASSERT_EQ(plan->input_shape(0), (OpShape{in, 1, 1}));
  ASSERT_EQ(plan->output_shape(), (OpShape{out, 1, 1}));
  const Tensor y = run_guarded(*plan, x.reshaped({in, 1, 1}));

  const Tensor expected = ref.forward(x.reshaped({1, in}), /*train=*/false);
  ASSERT_EQ(y.numel(), expected.numel());
  for (std::int64_t o = 0; o < out; ++o) {
    ASSERT_NEAR(y[o], expected[o], 1e-4) << "output " << o;
  }
}

TEST(FullyConnectedPlan, BiasIsOptional) {
  Rng rng(712);
  const Tensor w = Tensor::random_uniform({4, 6}, rng);
  const Tensor x = Tensor::random_uniform({6, 1, 1}, rng);
  const auto plan = compile_fc_plan(w);
  const Tensor y = run_guarded(*plan, x);
  for (std::int64_t o = 0; o < 4; ++o) {
    float acc = 0.0f;
    for (std::int64_t k = 0; k < 6; ++k) {
      acc += w(o, k) * x[k];
    }
    ASSERT_NEAR(y[o], acc, 1e-5);
  }
}

TEST(OpPlan, GeometryValidationThrows) {
  Rng rng(713);
  PoolDescriptor bad;
  bad.in = OpShape{2, 4, 4};
  bad.window_h = 5;  // taller than the padded input
  EXPECT_THROW(compile_pool_plan(bad), Error);
  EXPECT_THROW(compile_batchnorm_plan(OpShape{3, 2, 2},
                                      Tensor::random_uniform({4}, rng),
                                      Tensor::random_uniform({3}, rng)),
               Error);
  EXPECT_THROW(compile_add_plan(OpShape{2, 2, 2}, 1), Error);
  const auto plan = compile_relu_plan(OpShape{2, 3, 3});
  Tensor wrong({3, 3, 3});
  Tensor y({2, 3, 3});
  EXPECT_THROW(plan->run(wrong, &y, {}), Error);
}

}  // namespace
}  // namespace tdc
