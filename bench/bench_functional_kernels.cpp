// Wall-clock microbenchmarks of the *functional* kernels (google-benchmark).
//
// Everything else in bench/ reports simulated GPU latencies; this binary
// measures the real CPU implementations that back them — the correctness
// substrate whose outputs every simulated scheme is checked against. It is
// also the place to see the algorithmic FLOP ratios (Winograd's 2.25×
// multiply reduction, FFT's plane-size sensitivity) in actual silicon time.
#include <benchmark/benchmark.h>

#include <vector>

#include "conv/conv.h"
#include "core/tdc_kernel.h"
#include "core/tvm_scheme.h"
#include "exec/conv_plan.h"
#include "tensor/layout.h"
#include "tucker/tucker.h"

namespace {

using namespace tdc;

struct Operands {
  ConvShape shape;
  Tensor x;
  Tensor k_cnrs;
};

Operands make_operands(std::int64_t c, std::int64_t n, std::int64_t hw) {
  Rng rng(1234);
  Operands op;
  op.shape = ConvShape::same(c, n, hw, 3);
  op.x = Tensor::random_uniform({c, hw, hw}, rng);
  op.k_cnrs = Tensor::random_uniform({c, n, 3, 3}, rng);
  return op;
}

void BM_ConvReference(benchmark::State& state) {
  const Operands op = make_operands(state.range(0), state.range(1), state.range(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d_reference(op.x, op.k_cnrs, op.shape));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(op.shape.flops()));
}

// Times the execute path of one compiled plan: the plan, its output and its
// workspace are built once, outside the timing loop.
void run_plan(benchmark::State& state, const ConvPlan& plan, const Tensor& x) {
  Tensor y = plan.run(x);
  std::vector<float> workspace(
      static_cast<std::size_t>(plan.workspace_bytes()) / sizeof(float));
  for (auto _ : state) {
    plan.run(x, &y, workspace);
    benchmark::DoNotOptimize(y.raw());
  }
}

void BM_ConvPlan(benchmark::State& state, ConvAlgo algo) {
  const Operands op = make_operands(state.range(0), state.range(1), state.range(2));
  run_plan(state,
           *compile_conv_plan({.shape = op.shape, .algo = algo}, op.k_cnrs),
           op.x);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(op.shape.flops()));
}

void BM_TdcCoreKernel(benchmark::State& state) {
  const Operands op = make_operands(state.range(0), state.range(1), state.range(2));
  const Tensor k_crsn = cnrs_to_crsn(op.k_cnrs);
  const TdcTiling tiling{4, 4, std::min<std::int64_t>(op.shape.c, 8)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tdc_core_conv(op.x, k_crsn, op.shape, tiling));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(op.shape.flops()));
}

void BM_TvmSchemeKernel(benchmark::State& state) {
  const Operands op = make_operands(state.range(0), state.range(1), state.range(2));
  const TvmTiling tiling{4, 4, std::min<std::int64_t>(op.shape.n, 4)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tvm_scheme_conv(op.x, op.k_cnrs, op.shape, tiling));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(op.shape.flops()));
}

void BM_TuckerPipeline(benchmark::State& state) {
  const Operands op = make_operands(state.range(0), state.range(1), state.range(2));
  const TuckerFactors f =
      tucker_decompose(op.k_cnrs, {std::max<std::int64_t>(1, op.shape.c / 2),
                                   std::max<std::int64_t>(1, op.shape.n / 2)});
  run_plan(state, *compile_tucker_plan({.shape = op.shape}, f), op.x);
}

void BM_TuckerDecompose(benchmark::State& state) {
  Rng rng(99);
  const Tensor k = Tensor::random_uniform(
      {state.range(0), state.range(1), 3, 3}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tucker_decompose(k, {state.range(0) / 2, state.range(1) / 2}));
  }
}

}  // namespace

BENCHMARK(BM_ConvReference)->Args({32, 32, 28})->Args({64, 32, 14});
BENCHMARK_CAPTURE(BM_ConvPlan, im2col, ConvAlgo::kIm2col)
    ->Args({32, 32, 28})->Args({64, 32, 14})->Args({64, 64, 56});
BENCHMARK_CAPTURE(BM_ConvPlan, winograd, ConvAlgo::kWinograd)
    ->Args({32, 32, 28})->Args({64, 64, 56});
BENCHMARK_CAPTURE(BM_ConvPlan, fft, ConvAlgo::kFft)
    ->Args({32, 32, 28})->Args({64, 32, 14});
BENCHMARK(BM_TdcCoreKernel)->Args({32, 32, 28})->Args({64, 32, 14})->Args({64, 64, 56});
BENCHMARK(BM_TvmSchemeKernel)->Args({32, 32, 28})->Args({64, 32, 14});
BENCHMARK(BM_TuckerPipeline)->Args({32, 32, 28})->Args({64, 64, 56});
BENCHMARK(BM_TuckerDecompose)
    ->Args({64, 64})
    ->Args({128, 128})
    ->Args({256, 256})
    ->Args({512, 512});

BENCHMARK_MAIN();
