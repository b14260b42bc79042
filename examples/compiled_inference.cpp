// End-to-end serving through the graph-level plan API.
//
//   $ ./build/example_compiled_inference [budget] [batch]
//
// The deployment flow the exec layer was built for:
//   1. co-design pass over ResNet-18's decomposable convolutions
//      (Algorithm 1) — decides which layers to decompose and at which ranks;
//   2. InferenceSession::compile turns the *whole* ModelSpec — 7×7 stem and
//      its maxpool, residual stages with downsample projections, BN/ReLU,
//      global pool, FC head — plus that decision list into a DAG of op
//      plans with a liveness-planned activation arena. Convolution plans go
//      through the process-wide PlanCache, so a recompile of the same model
//      (a second replica, a config reload) is nearly free;
//   3. a steady-state serving loop replays the session over a stream of
//      requests with one preallocated workspace — no per-request
//      allocation, reshaping, or weight packing.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "exec/graph_plan.h"
#include "exec/microbench.h"
#include "exec/plan_cache.h"
#include "nn/models.h"

int main(int argc, char** argv) {
  using namespace tdc;
  using Clock = std::chrono::steady_clock;
  const double budget = argc > 1 ? std::atof(argv[1]) : 0.65;
  const std::int64_t batch = argc > 2 ? std::atoll(argv[2]) : 4;
  const DeviceSpec device = make_a100();
  const ModelSpec model = make_resnet18();

  std::printf("== Compiled inference: %s on %s, budget %.0f%% ==\n\n",
              model.name.c_str(), device.name.c_str(), budget * 100.0);

  // 1. Co-design over the decomposable convolutions — taken at full width:
  //    the tridiagonal eigensolver behind tucker_decompose factorizes even
  //    the 512-channel conv5 stages in well under a second, so the compile
  //    below pays for every decomposition the codesign asked for.
  CodesignOptions opts;
  opts.budget = budget;
  const CodesignResult codesign =
      run_codesign(device, model.decomposable_conv_shapes(), opts);
  const std::vector<LayerDecision>& decisions = codesign.layers;

  // 2. Compile the full inventory against (here: synthetic) weights. The
  //    dense layers stay at kAuto: sessions resolve it with the host cost
  //    provider (exec/host_cost.h), which prices candidates for this CPU —
  //    the historical dense_algo = kIm2col pin is no longer needed (the
  //    option remains for explicit overrides).
  SessionOptions options;
  const auto weights = random_model_weights(model, 20230225);
  // Calibrate the host model before the timer: a once-per-process cost that
  // would otherwise be billed to the first compile.
  host_calibration();
  const auto t0 = Clock::now();
  const InferenceSession session =
      InferenceSession::compile(device, model, weights, decisions, options);
  const double cold_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::int64_t convs = 0;
  std::int64_t decomposed = 0;
  for (std::int64_t i = 0; i < session.num_ops(); ++i) {
    const auto* conv = dynamic_cast<const ConvPlan*>(&session.op(i));
    if (conv != nullptr) {
      ++convs;
      decomposed += conv->decomposed() ? 1 : 0;
    }
  }
  std::printf("session: %lld ops in %lld steps (%lld convs, %lld "
              "decomposed), arena %.1f MiB, workspace %.1f MiB\n",
              static_cast<long long>(session.num_ops()),
              static_cast<long long>(session.num_steps()),
              static_cast<long long>(convs),
              static_cast<long long>(decomposed),
              session.arena_floats() * 4.0 / (1024.0 * 1024.0),
              session.workspace_bytes() / (1024.0 * 1024.0));

  // A second replica compiling the same model hits the plan cache.
  const auto t1 = Clock::now();
  const InferenceSession replica =
      InferenceSession::compile(device, model, weights, decisions, options);
  const double cached_s =
      std::chrono::duration<double>(Clock::now() - t1).count();
  const PlanCache::Stats stats = PlanCache::instance().stats();
  std::printf("compile: cold %.1f ms, cached %.1f ms (%.0fx; cache: %lld "
              "entries, %lld hits)\n\n",
              cold_s * 1e3, cached_s * 1e3, cold_s / cached_s,
              static_cast<long long>(stats.entries),
              static_cast<long long>(stats.hits));

  // 3. Steady-state serving loop through the cache-compiled replica — one
  //    workspace, zero allocation per batch, bit-identical to the cold
  //    session.
  Rng rng(42);
  const OpShape& in = replica.input_shape();
  const OpShape& out = replica.output_shape();
  const Tensor x = Tensor::random_uniform({batch, in.c, in.h, in.w}, rng);
  Tensor y({batch, out.c, out.h, out.w});
  std::vector<float> workspace(static_cast<std::size_t>(
      replica.batched_workspace_bytes(batch) / sizeof(float)));

  replica.run_batched(x, &y, workspace);  // warm-up
  const int reps = 3;
  const auto t2 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    replica.run_batched(x, &y, workspace);
  }
  const double s =
      std::chrono::duration<double>(Clock::now() - t2).count() / reps;
  std::printf("batched run (replica session): %.2f ms/batch, %.1f images/s\n",
              s * 1e3, static_cast<double>(batch) / s);
  return 0;
}
