// Plan/execute benchmark: per-call vs. planned execution on ResNet-18 layer
// shapes, batch kBatch. The per-call path is the historical free-function
// API (every call re-derives the weight reshape, re-packs GEMM panels, and
// allocates output + scratch); the planned path compiles the layer once and
// replays it through run_batched with a preallocated workspace. Emits
// BENCH_conv_plan.json alongside the table.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "conv/tucker_conv.h"
#include "exec/graph_plan.h"
#include "tucker/tucker.h"

namespace {

using Clock = std::chrono::steady_clock;

template <class F>
double best_of(int reps, const F& f) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::min(best, s);
  }
  return best;
}

constexpr std::int64_t kBatch = 8;

struct LayerRow {
  std::string layer;
  tdc::ConvShape shape;
  tdc::TuckerRanks ranks;
  double dense_percall_s;    // whole batch, conv2d_im2col per image
  double dense_planned_s;    // whole batch, plan.run_batched
  double tucker_percall_s;   // whole batch, tucker_conv_fused per image
  double tucker_planned_s;   // whole batch, fused plan.run_batched
};

}  // namespace

int main() {
  using namespace tdc;
  Rng rng(20230225);  // PPoPP'23

  // The chainable ResNet-18 residual trunk: per-layer rows and the
  // end-to-end session comparison share these shapes.
  struct Layer {
    const char* name;
    ConvShape shape;
  };
  const Layer layers[] = {
      {"conv2_x", ConvShape::same(64, 64, 56, 3)},
      {"conv3_1", ConvShape::same(64, 128, 56, 3, 2)},
      {"conv3_x", ConvShape::same(128, 128, 28, 3)},
      {"conv4_1", ConvShape::same(128, 256, 28, 3, 2)},
      {"conv4_x", ConvShape::same(256, 256, 14, 3)},
      {"conv5_1", ConvShape::same(256, 512, 14, 3, 2)},
      {"conv5_x", ConvShape::same(512, 512, 7, 3)},
  };

  std::vector<LayerRow> rows;
  ModelSpec trunk;
  trunk.name = "resnet18-trunk";
  std::vector<LayerWeights> weights;
  std::vector<LayerDecision> decisions;
  for (const Layer& layer : layers) {
    const ConvShape& s = layer.shape;
    // Paper-style 4× channel compression on both modes.
    const TuckerRanks ranks{std::max<std::int64_t>(s.c / 4, 1),
                            std::max<std::int64_t>(s.n / 4, 1)};
    const Tensor k = Tensor::random_uniform({s.c, s.n, s.r, s.s}, rng);
    const TuckerFactors f = tucker_decompose(k, ranks);
    const Tensor xb = Tensor::random_uniform({kBatch, s.c, s.h, s.w}, rng);
    trunk.layers.push_back(LayerSpec::make_conv(layer.name, s));
    weights.emplace_back().conv_kernel = k;
    LayerDecision dec;
    dec.shape = s;
    dec.decomposed = true;
    dec.ranks = ranks;
    decisions.push_back(dec);

    auto slice = [&](std::int64_t b) {
      Tensor x({s.c, s.h, s.w});
      const std::int64_t stride = x.numel();
      std::copy(xb.raw() + b * stride, xb.raw() + (b + 1) * stride, x.raw());
      return x;
    };

    LayerRow row;
    row.layer = layer.name;
    row.shape = s;
    row.ranks = ranks;

    // --- dense im2col: per-call vs planned --------------------------------
    row.dense_percall_s = best_of(5, [&] {
      for (std::int64_t b = 0; b < kBatch; ++b) {
        conv2d_im2col(slice(b), k, s);
      }
    });
    {
      ConvDescriptor desc;
      desc.shape = s;
      desc.algo = ConvAlgo::kIm2col;
      const auto plan = compile_conv_plan(desc, k);
      Tensor y({kBatch, s.n, s.out_h(), s.out_w()});
      std::vector<float> ws(static_cast<std::size_t>(
          plan->batched_workspace_bytes(kBatch) / sizeof(float)));
      row.dense_planned_s =
          best_of(5, [&] { plan->run_batched(xb, &y, ws); });
    }

    // --- fused Tucker pipeline: per-call vs planned -----------------------
    row.tucker_percall_s = best_of(5, [&] {
      for (std::int64_t b = 0; b < kBatch; ++b) {
        tucker_conv_fused(slice(b), f, s);
      }
    });
    {
      TuckerDescriptor desc;
      desc.shape = s;
      const auto plan = compile_tucker_plan(desc, f);
      Tensor y({kBatch, s.n, s.out_h(), s.out_w()});
      std::vector<float> ws(static_cast<std::size_t>(
          plan->batched_workspace_bytes(kBatch) / sizeof(float)));
      row.tucker_planned_s =
          best_of(5, [&] { plan->run_batched(xb, &y, ws); });
    }
    rows.push_back(row);
  }

  // --- end-to-end: per-call chain vs a conv-only InferenceSession ---------
  const InferenceSession model =
      InferenceSession::compile(make_a100(), trunk, weights, decisions);
  const OpShape& in = model.input_shape();
  const OpShape& out = model.output_shape();
  const Tensor xb = Tensor::random_uniform({kBatch, in.c, in.h, in.w}, rng);
  std::vector<TuckerFactors> factors;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    factors.push_back(
        tucker_decompose(weights[i].conv_kernel, decisions[i].ranks));
  }

  const double model_percall_s = best_of(3, [&] {
    for (std::int64_t b = 0; b < kBatch; ++b) {
      Tensor act({in.c, in.h, in.w});
      std::copy(xb.raw() + b * act.numel(), xb.raw() + (b + 1) * act.numel(),
                act.raw());
      for (std::size_t i = 0; i < factors.size(); ++i) {
        act = tucker_conv_fused(act, factors[i], decisions[i].shape);
      }
    }
  });
  Tensor ym({kBatch, out.c, out.h, out.w});
  std::vector<float> model_ws(static_cast<std::size_t>(
      model.batched_workspace_bytes(kBatch) / sizeof(float)));
  const double model_planned_s =
      best_of(3, [&] { model.run_batched(xb, &ym, model_ws); });

  // ---- table ------------------------------------------------------------
  bench::print_title(
      "Plan/execute — per-call vs planned, ResNet-18 layers, batch " +
      std::to_string(kBatch));
  std::printf("%-10s %-22s %12s %12s %9s %12s %12s %9s\n", "layer", "shape",
              "im2col/call", "im2col/plan", "speedup", "tucker/call",
              "tucker/plan", "speedup");
  for (const LayerRow& r : rows) {
    std::printf("%-10s %-22s %10sms %10sms %9s %10sms %10sms %9s\n",
                r.layer.c_str(), bench::shape_label(r.shape).c_str(),
                bench::ms(r.dense_percall_s).c_str(),
                bench::ms(r.dense_planned_s).c_str(),
                bench::ratio(r.dense_percall_s / r.dense_planned_s).c_str(),
                bench::ms(r.tucker_percall_s).c_str(),
                bench::ms(r.tucker_planned_s).c_str(),
                bench::ratio(r.tucker_percall_s / r.tucker_planned_s).c_str());
  }
  std::printf("\ncompiled trunk (%d layers): per-call %sms, planned %sms "
              "(%s)\n",
              static_cast<int>(decisions.size()),
              bench::ms(model_percall_s).c_str(),
              bench::ms(model_planned_s).c_str(),
              bench::ratio(model_percall_s / model_planned_s).c_str());
  std::printf("threads: %d (override with TDC_NUM_THREADS)\n", num_threads());

  // ---- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_conv_plan.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_conv_plan.json for writing\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"conv_plan\",\n  \"threads\": %d,\n"
               "  \"batch\": %lld,\n  \"layers\": [\n",
               num_threads(), static_cast<long long>(kBatch));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LayerRow& r = rows[i];
    std::fprintf(
        json,
        "    {\"layer\": \"%s\", \"c\": %lld, \"n\": %lld, \"hw\": %lld, "
        "\"stride\": %lld, \"d1\": %lld, \"d2\": %lld, "
        "\"dense_percall_ms\": %.4f, \"dense_planned_ms\": %.4f, "
        "\"dense_speedup\": %.3f, \"tucker_percall_ms\": %.4f, "
        "\"tucker_planned_ms\": %.4f, \"tucker_speedup\": %.3f}%s\n",
        r.layer.c_str(), static_cast<long long>(r.shape.c),
        static_cast<long long>(r.shape.n), static_cast<long long>(r.shape.h),
        static_cast<long long>(r.shape.stride_h),
        static_cast<long long>(r.ranks.d1), static_cast<long long>(r.ranks.d2),
        r.dense_percall_s * 1e3, r.dense_planned_s * 1e3,
        r.dense_percall_s / r.dense_planned_s, r.tucker_percall_s * 1e3,
        r.tucker_planned_s * 1e3, r.tucker_percall_s / r.tucker_planned_s,
        i + 1 < rows.size() ? "," : "");
  }
  // The trunk row keeps its historical "compiled_model" key so committed
  // BENCH_conv_plan.json files stay comparable.
  std::fprintf(json,
               "  ],\n  \"compiled_model\": {\"layers\": %d, "
               "\"percall_ms\": %.4f, \"planned_ms\": %.4f, "
               "\"speedup\": %.3f}\n}\n",
               static_cast<int>(decisions.size()), model_percall_s * 1e3,
               model_planned_s * 1e3, model_percall_s / model_planned_s);
  std::fclose(json);
  std::printf("wrote BENCH_conv_plan.json\n");
  return 0;
}
