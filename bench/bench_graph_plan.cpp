// Graph-level plan benchmark: the full ResNet-18 inventory (the Figure 8/9
// end-to-end subject) compiled into one InferenceSession.
//
// Three comparisons, emitted to BENCH_graph_plan.json alongside the table:
//   * compile, cold vs cached — the descriptor-keyed PlanCache must make
//     recompiling a repeated model shape ≥10× cheaper than the first build;
//   * serving, per-op vs session — every op run with privately allocated
//     activations/workspaces per request, versus one arena-planned
//     allocation-free graph walk;
//   * batched session serving throughput.
//
// Decomposition decisions come from a real codesign pass at the paper's 65%
// ResNet-18 budget, taken at full width: the tridiagonal eigensolver
// (linalg/eig.h) factorizes the 256/512-channel stages in well under a
// second each, so the cold column now includes every factorization the
// codesign asked for.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/graph_plan.h"
#include "exec/microbench.h"
#include "exec/plan_cache.h"
#include "nn/models.h"

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

}  // namespace

int main() {
  using namespace tdc;
  const DeviceSpec device = make_a100();
  const ModelSpec model = make_resnet18();
  const auto weights = random_model_weights(model, 20230225);

  CodesignOptions cd_opts;
  cd_opts.budget = 0.65;
  const CodesignResult codesign =
      run_codesign(device, model.decomposable_conv_shapes(), cd_opts);
  const std::vector<LayerDecision>& decisions = codesign.layers;
  std::int64_t decomposed = 0;
  for (const LayerDecision& d : decisions) {
    decomposed += d.decomposed ? 1 : 0;
  }

  // dense_algo stays at its kAuto default: sessions resolve it with the
  // host cost provider now, so the historical kIm2col pin is no longer
  // needed for CPU serving (the option remains for explicit overrides).
  SessionOptions options;

  // Calibrate the host cost model before the timers start — it is a
  // once-per-process cost, not part of any compile.
  host_calibration();

  // --- compile: cold (empty cache) vs cached (recompile) ------------------
  PlanCache::instance().clear();
  const auto t_cold = Clock::now();
  InferenceSession session =
      InferenceSession::compile(device, model, weights, decisions, options);
  const double cold_s =
      std::chrono::duration<double>(Clock::now() - t_cold).count();
  const PlanCache::Stats cold_stats = PlanCache::instance().stats();

  const double cached_s = best_of(3, [&] {
    session =
        InferenceSession::compile(device, model, weights, decisions, options);
  });
  const PlanCache::Stats cached_stats = PlanCache::instance().stats();

  // --- serving: per-op private buffers vs arena-planned session -----------
  Rng rng(20230226);
  const OpShape& in = session.input_shape();
  const OpShape& out = session.output_shape();
  const Tensor x = Tensor::random_uniform({in.c, in.h, in.w}, rng);

  std::int64_t sum_act = 0;
  for (std::int64_t i = 0; i + 1 < session.num_ops(); ++i) {
    sum_act += session.op(i).output_shape().floats();
  }

  const double per_op_s = best_of(5, [&] {
    // The unplanned composition: every op allocates its output and scratch
    // per request (what chaining single-shot runs looks like).
    std::vector<Tensor> outs;
    for (std::int64_t i = 0; i < session.num_ops(); ++i) {
      const OpPlan& op = session.op(i);
      std::vector<const float*> inputs;
      for (const std::int64_t j : session.op_inputs(i)) {
        inputs.push_back(j == InferenceSession::kModelInput
                             ? x.raw()
                             : outs[static_cast<std::size_t>(j)].raw());
      }
      Tensor y({op.output_shape().c, op.output_shape().h,
                op.output_shape().w});
      std::vector<float> ws(
          static_cast<std::size_t>(op.workspace_bytes() / sizeof(float)));
      op.run_inputs(
          std::span<const float* const>(inputs.data(), inputs.size()),
          y.raw(), ws);
      outs.push_back(std::move(y));
    }
  });

  Tensor y({out.c, out.h, out.w});
  std::vector<float> ws(
      static_cast<std::size_t>(session.workspace_bytes() / sizeof(float)));
  const double session_s = best_of(5, [&] { session.run(x, &y, ws); });

  // --- batched serving -----------------------------------------------------
  constexpr std::int64_t kBatch = 8;
  const Tensor xb = Tensor::random_uniform({kBatch, in.c, in.h, in.w}, rng);
  Tensor yb({kBatch, out.c, out.h, out.w});
  std::vector<float> wsb(static_cast<std::size_t>(
      session.batched_workspace_bytes(kBatch) / sizeof(float)));
  const double batched_s =
      best_of(3, [&] { session.run_batched(xb, &yb, wsb); });

  // ---- table --------------------------------------------------------------
  bench::print_title(
      "Graph plan — ResNet-18 ModelSpec as one InferenceSession (" +
      std::to_string(session.num_ops()) + " ops in " +
      std::to_string(session.num_steps()) + " steps, " +
      std::to_string(decomposed) + " decomposed convs)");
  std::printf("compile   cold %8sms   cached %8sms   speedup %s   "
              "(cache: %lld entries, %lld hits after recompiles)\n",
              bench::ms(cold_s).c_str(), bench::ms(cached_s).c_str(),
              bench::ratio(cold_s / cached_s).c_str(),
              static_cast<long long>(cached_stats.entries),
              static_cast<long long>(cached_stats.hits));
  std::printf("serve     per-op %6sms   session %6sms   speedup %s   "
              "(arena %.1f MiB vs %.1f MiB private activations)\n",
              bench::ms(per_op_s).c_str(), bench::ms(session_s).c_str(),
              bench::ratio(per_op_s / session_s).c_str(),
              session.arena_floats() * 4.0 / (1024.0 * 1024.0),
              sum_act * 4.0 / (1024.0 * 1024.0));
  std::printf("batched   batch %lld: %sms/batch, %.1f images/s\n",
              static_cast<long long>(kBatch), bench::ms(batched_s).c_str(),
              static_cast<double>(kBatch) / batched_s);
  std::printf("threads: %d (override with TDC_NUM_THREADS)\n", num_threads());

  // ---- JSON ---------------------------------------------------------------
  FILE* json = std::fopen("BENCH_graph_plan.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_graph_plan.json for writing\n");
    return 1;
  }
  std::fprintf(
      json,
      "{\n  \"bench\": \"graph_plan\",\n  \"model\": \"resnet18\",\n"
      "  \"threads\": %d,\n  \"ops\": %lld,\n  \"steps\": %lld,\n"
      "  \"decomposed_convs\": %lld,\n"
      "  \"arena_floats\": %lld,\n  \"private_activation_floats\": %lld,\n"
      "  \"workspace_mib\": %.2f,\n"
      "  \"compile\": {\"cold_ms\": %.3f, \"cached_ms\": %.3f, "
      "\"speedup\": %.1f, \"cache_entries\": %lld, \"cache_hits\": %lld},\n"
      "  \"serve\": {\"per_op_ms\": %.3f, \"session_ms\": %.3f, "
      "\"speedup\": %.3f},\n"
      "  \"batched\": {\"batch\": %lld, \"ms\": %.3f, "
      "\"images_per_s\": %.1f}\n}\n",
      num_threads(), static_cast<long long>(session.num_ops()),
      static_cast<long long>(session.num_steps()),
      static_cast<long long>(decomposed),
      static_cast<long long>(session.arena_floats()),
      static_cast<long long>(sum_act),
      session.workspace_bytes() / (1024.0 * 1024.0), cold_s * 1e3,
      cached_s * 1e3, cold_s / cached_s,
      static_cast<long long>(cached_stats.entries),
      static_cast<long long>(cached_stats.hits), per_op_s * 1e3,
      session_s * 1e3, per_op_s / session_s,
      static_cast<long long>(kBatch), batched_s * 1e3,
      static_cast<double>(kBatch) / batched_s);
  std::fclose(json);
  std::printf("wrote BENCH_graph_plan.json\n");

  // Regression bar (CI runs this binary): the descriptor-keyed cache must
  // keep recompiling a repeated model shape at least 10× cheaper than the
  // cold build. Typical margin is ~80×, so a failure here means the cache
  // key or the hit path broke, not machine noise.
  if (cold_s / cached_s < 10.0) {
    std::fprintf(stderr,
                 "FAIL: cached compile only %.1fx faster than cold "
                 "(regression bar: 10x)\n",
                 cold_s / cached_s);
    return 1;
  }
  return 0;
}
