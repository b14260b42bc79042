// Tests for the pluggable algorithm-selection subsystem
// (exec/cost_provider.h, host_cost.h, autotune.h, microbench.h): the
// simulated-GPU provider must reproduce the historical resolver
// decision-for-decision; the host and autotune providers must never deploy
// the TDC-core emulator or an illegal/pointless transform algorithm; the
// PlanCache must keep plans resolved under different providers apart; and
// the autotuner must be deterministic within a process and across a
// TDC_AUTOTUNE_CACHE round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "exec/autotune.h"
#include "exec/conv_plan.h"
#include "exec/cost_provider.h"
#include "exec/graph_plan.h"
#include "exec/host_cost.h"
#include "exec/microbench.h"
#include "exec/plan_cache.h"
#include "exec/quantize.h"
#include "nn/models.h"

namespace tdc {
namespace {

// Pins the host calibration through the environment for the duration of a
// test, so host-provider decisions and cache keys are machine-independent.
class PinnedCalibration {
 public:
  PinnedCalibration(const char* gflops, const char* gbs) {
    ::setenv("TDC_HOST_GFLOPS", gflops, 1);
    ::setenv("TDC_HOST_GBS", gbs, 1);
    reset_host_calibration();
  }
  ~PinnedCalibration() {
    ::unsetenv("TDC_HOST_GFLOPS");
    ::unsetenv("TDC_HOST_GBS");
    reset_host_calibration();
  }
};

std::vector<ConvShape> resnet18_conv_shapes() {
  std::vector<ConvShape> shapes;
  for (const LayerSpec& layer : make_resnet18().layers) {
    if (layer.kind == LayerKind::kConv) {
      shapes.push_back(layer.conv);
    }
  }
  return shapes;
}

std::vector<ConvShape> awkward_shapes() {
  return {
      ConvShape::same(8, 8, 16, 5, 2),          // Winograd+FFT illegal
      ConvShape::same(16, 32, 20, 5),           // 5×5 stride 1 (FFT legal)
      ConvShape::same(64, 64, 56, 1),           // pointwise
      ConvShape::same(64, 128, 56, 1, 2),       // strided pointwise
      ConvShape::valid_conv(5, 7, 9, 11, 2, 4), // asymmetric filter
  };
}

TEST(SimulatedGpuProvider, MatchesLegacyResolverOnEveryPath) {
  // The provider is the historical resolve_conv_algo moved behind the seam;
  // the free function forwards to it. Sweep the paper-repro shapes on both
  // devices to pin the two entry points together decision-for-decision.
  for (const DeviceSpec& device : {make_a100(), make_rtx2080ti()}) {
    for (const ConvShape& shape : resnet18_conv_shapes()) {
      EXPECT_EQ(simulated_gpu_cost_provider().resolve(device, shape),
                resolve_conv_algo(device, shape))
          << device.name << " " << shape.to_string();
    }
    for (const ConvShape& shape : awkward_shapes()) {
      EXPECT_EQ(simulated_gpu_cost_provider().resolve(device, shape),
                resolve_conv_algo(device, shape))
          << device.name << " " << shape.to_string();
    }
  }
  EXPECT_STREQ(simulated_gpu_cost_provider().name(), "simgpu");
}

TEST(DenseAlgoCandidates, RespectLegalityAndPointwiseExclusion) {
  const auto has = [](const std::vector<ConvAlgo>& v, ConvAlgo a) {
    return std::find(v.begin(), v.end(), a) != v.end();
  };
  const auto full = dense_algo_candidates(ConvShape::same(64, 64, 56, 3));
  EXPECT_TRUE(has(full, ConvAlgo::kIm2col));
  EXPECT_TRUE(has(full, ConvAlgo::kWinograd));
  EXPECT_TRUE(has(full, ConvAlgo::kFft));
  EXPECT_TRUE(has(full, ConvAlgo::kTdcCore));
  EXPECT_FALSE(has(full, ConvAlgo::kReference));

  const auto pw = dense_algo_candidates(ConvShape::same(64, 256, 56, 1));
  EXPECT_FALSE(has(pw, ConvAlgo::kWinograd));
  EXPECT_FALSE(has(pw, ConvAlgo::kFft));

  const auto strided5 = dense_algo_candidates(ConvShape::same(8, 8, 16, 5, 2));
  EXPECT_FALSE(has(strided5, ConvAlgo::kWinograd));
  EXPECT_FALSE(has(strided5, ConvAlgo::kFft));
}

// The regression the refactor exists for: with the host model the TDC-core
// functional emulator never wins a dense selection on ResNet-18 shapes, and
// the pointwise / shape-legality exclusions extend to the new providers.
TEST(HostProvider, NeverSelectsEmulatorOrIllegalTransforms) {
  const DeviceSpec device = make_a100();
  // Two very different pinned machines: compute-rich and bandwidth-starved.
  for (const auto& [gflops, gbs] : std::vector<std::pair<const char*, const char*>>{
           {"50", "10"}, {"4", "1"}}) {
    PinnedCalibration pin(gflops, gbs);
    std::vector<ConvShape> shapes = resnet18_conv_shapes();
    const std::vector<ConvShape> extra = awkward_shapes();
    shapes.insert(shapes.end(), extra.begin(), extra.end());
    for (const ConvShape& shape : shapes) {
      const ConvAlgo resolved = host_cost_provider().resolve(device, shape);
      EXPECT_NE(resolved, ConvAlgo::kTdcCore) << shape.to_string();
      EXPECT_NE(resolved, ConvAlgo::kReference) << shape.to_string();
      EXPECT_NE(resolved, ConvAlgo::kAuto) << shape.to_string();
      EXPECT_TRUE(conv_algo_supports(resolved, shape)) << shape.to_string();
      if (shape.r == 1 && shape.s == 1) {
        EXPECT_EQ(resolved, ConvAlgo::kIm2col) << shape.to_string();
      }
    }
  }
}

TEST(HostProvider, CostModelOrdersCatastrophesOut) {
  PinnedCalibration pin("50", "10");
  const ConvShape shape = ConvShape::same(64, 64, 56, 3);
  const double im2col = host_conv_cost_s(ConvAlgo::kIm2col, shape);
  EXPECT_TRUE(std::isfinite(im2col));
  EXPECT_GT(im2col, 0.0);
  // The CPU FFT path (C·N spectra traffic) and the TDC emulator must be
  // priced at least an order of magnitude off im2col.
  EXPECT_GT(host_conv_cost_s(ConvAlgo::kFft, shape), 10.0 * im2col);
  EXPECT_GT(host_conv_cost_s(ConvAlgo::kTdcCore, shape), 10.0 * im2col);
  // Non-deployable requests price to +infinity.
  EXPECT_TRUE(std::isinf(host_conv_cost_s(ConvAlgo::kReference, shape)));
  EXPECT_TRUE(std::isinf(host_conv_cost_s(ConvAlgo::kAuto, shape)));
  EXPECT_TRUE(std::isinf(host_conv_cost_s(
      ConvAlgo::kWinograd, ConvShape::same(64, 64, 56, 1))));
}

TEST(HostCalibration, EnvOverridesAndMeasurementBothWork) {
  {
    PinnedCalibration pin("123.5", "45.25");
    const HostCalibration cal = host_calibration();
    EXPECT_EQ(cal.gflops, 123.5);
    EXPECT_EQ(cal.gbs, 45.25);
    EXPECT_TRUE(cal.gflops_from_env);
    EXPECT_TRUE(cal.gbs_from_env);
  }
  // Pin destroyed: the next read measures for real.
  const HostCalibration measured = host_calibration();
  EXPECT_FALSE(measured.gflops_from_env);
  EXPECT_FALSE(measured.gbs_from_env);
  EXPECT_TRUE(std::isfinite(measured.gflops));
  EXPECT_TRUE(std::isfinite(measured.gbs));
  EXPECT_GT(measured.gflops, 0.0);
  EXPECT_GT(measured.gbs, 0.0);
}

TEST(HostProvider, CacheKeyReflectsCalibration) {
  std::string key_a;
  {
    PinnedCalibration pin("50", "10");
    key_a = host_cost_provider().cache_key();
    EXPECT_NE(key_a, simulated_gpu_cost_provider().cache_key());
  }
  PinnedCalibration pin("25", "10");
  EXPECT_NE(host_cost_provider().cache_key(), key_a)
      << "re-calibration must change the resolution provenance";
}

// The PlanCache key must separate exactly the requests that compile
// different artifacts and merge the ones that compile the same artifact,
// across all four plan kinds (dense/Tucker × fp32/int8). A kAuto plan
// resolved by one provider is never served to another; pinned algorithms
// share one entry; int8 keys carry neither the algorithm request nor the
// Tucker executor, since the quantized engine is always im2col.
TEST(PlanCacheProvenance, KeyTableCoversEveryPlanKind) {
  PinnedCalibration pin("50", "10");
  Rng rng(601);
  const ConvShape shape = ConvShape::same(16, 16, 12, 3);
  const Tensor kernel =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const CostProvider* host = &host_cost_provider();
  const CostProvider* simgpu = &simulated_gpu_cost_provider();
  LayerQuant q1;
  q1.quantize = true;
  LayerQuant q2 = q1;
  q2.input.scale = 0.5f;
  ASSERT_NE(quant_fingerprint(q1), quant_fingerprint(q2));
  const TuckerRanks r88{8, 8};
  const TuckerRanks r48{4, 8};

  struct Case {
    const char* name;
    PlanRequest a;
    PlanRequest b;
    bool shared;
  };
  const ConvAlgo kAuto = ConvAlgo::kAuto;
  const ConvAlgo kIm2col = ConvAlgo::kIm2col;
  const Case cases[] = {
      {"repeated request", {.algo = kIm2col}, {.algo = kIm2col}, true},
      {"kAuto across providers",
       {.cost = host, .algo = kAuto},
       {.cost = simgpu, .algo = kAuto}, false},
      {"null provider aliases simgpu",
       {.cost = simgpu, .algo = kAuto},
       {.cost = nullptr, .algo = kAuto}, true},
      {"pinned across providers",
       {.cost = host, .algo = kIm2col},
       {.cost = simgpu, .algo = kIm2col}, true},
      {"fp32 vs int8",
       {.algo = kIm2col},
       {.algo = kIm2col, .quant = &q1}, false},
      {"two calibrations",
       {.algo = kIm2col, .quant = &q1},
       {.algo = kIm2col, .quant = &q2}, false},
      {"int8 under kAuto vs kIm2col",
       {.cost = host, .algo = kAuto, .quant = &q1},
       {.cost = host, .algo = kIm2col, .quant = &q1}, true},
      {"Tucker vs dense", {.algo = kIm2col}, {.ranks = r88}, false},
      {"two rank pairs", {.ranks = r88}, {.ranks = r48}, false},
      {"fp32 Tucker fused vs staged",
       {.ranks = r88, .exec = TuckerExec::kFused},
       {.ranks = r88, .exec = TuckerExec::kStaged}, false},
      {"fp32 vs int8 Tucker",
       {.ranks = r88},
       {.ranks = r88, .quant = &q1}, false},
      {"int8 Tucker fused vs staged",
       {.ranks = r88, .exec = TuckerExec::kFused, .quant = &q1},
       {.ranks = r88, .exec = TuckerExec::kStaged, .quant = &q1}, true},
  };

  PlanCache& cache = PlanCache::instance();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    cache.clear();
    PlanRequest a = c.a;
    PlanRequest b = c.b;
    for (PlanRequest* r : {&a, &b}) {
      r->shape = shape;
      r->kernel = &kernel;
    }
    const auto pa = cache.get_or_compile(a);
    const auto pb = cache.get_or_compile(b);
    const PlanCache::Stats st = cache.stats();
    EXPECT_EQ(st.misses, c.shared ? 1 : 2);
    EXPECT_EQ(st.hits, c.shared ? 1 : 0);
    EXPECT_EQ(st.entries, c.shared ? 1 : 2);
    EXPECT_EQ(pa == pb, c.shared);
  }
  cache.clear();
}

TEST(Autotune, DeterministicWithinProcessAndNeverTimesTwice) {
  ::unsetenv("TDC_AUTOTUNE_CACHE");
  autotune_clear();
  const DeviceSpec device = make_a100();
  const std::vector<ConvShape> shapes = {
      ConvShape::same(8, 16, 12, 3),
      ConvShape::same(16, 8, 10, 3),
      ConvShape::same(8, 8, 10, 1),  // single-candidate: never timed
  };
  std::vector<ConvAlgo> first;
  for (const ConvShape& s : shapes) {
    first.push_back(autotune_cost_provider().resolve(device, s));
    EXPECT_TRUE(conv_algo_supports(first.back(), s)) << s.to_string();
    EXPECT_NE(first.back(), ConvAlgo::kTdcCore) << s.to_string();
  }
  const AutotuneStats after_first = autotune_stats();
  EXPECT_EQ(after_first.entries, 3);
  EXPECT_EQ(after_first.table_hits, 0);
  const auto table_first = autotune_table();

  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(autotune_cost_provider().resolve(device, shapes[i]), first[i])
        << shapes[i].to_string();
  }
  const AutotuneStats after_second = autotune_stats();
  EXPECT_EQ(after_second.table_hits, 3);
  EXPECT_EQ(after_second.timed_candidates, after_first.timed_candidates)
      << "a memoized shape must never be re-timed";
  EXPECT_EQ(autotune_table(), table_first);
  autotune_clear();
}

TEST(Autotune, PointwiseResolvesWithoutTiming) {
  ::unsetenv("TDC_AUTOTUNE_CACHE");
  autotune_clear();
  const ConvAlgo resolved = autotune_cost_provider().resolve(
      make_a100(), ConvShape::same(32, 64, 28, 1));
  EXPECT_EQ(resolved, ConvAlgo::kIm2col);
  EXPECT_EQ(autotune_stats().timed_candidates, 0)
      << "only im2col survives the estimate gate on 1×1 layers";
  autotune_clear();
}

TEST(Autotune, CacheFileRoundTripSkipsRetuning) {
  const std::string path =
      ::testing::TempDir() + "tdc_autotune_roundtrip.json";
  std::remove(path.c_str());
  ::setenv("TDC_AUTOTUNE_CACHE", path.c_str(), 1);
  autotune_clear();  // also forgets the env decision → re-read on next use
  // A compute-rich pin keeps two candidates inside the estimate gate for
  // both shapes; a measured calibration taken on a loaded host can shrink
  // the shortlist to one, and a single candidate is never timed.
  PinnedCalibration pin("100", "5");

  const DeviceSpec device = make_a100();
  const std::vector<ConvShape> shapes = {ConvShape::same(8, 16, 12, 3),
                                         ConvShape::same(16, 8, 10, 3)};
  std::vector<ConvAlgo> first;
  for (const ConvShape& s : shapes) {
    first.push_back(autotune_cost_provider().resolve(device, s));
  }
  EXPECT_GT(autotune_stats().timed_candidates, 0);
  const auto table_first = autotune_table();

  // A "cold session": empty table, same env. The file must satisfy every
  // resolve with zero re-timing.
  autotune_clear();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(autotune_cost_provider().resolve(device, shapes[i]), first[i])
        << shapes[i].to_string();
  }
  EXPECT_EQ(autotune_stats().timed_candidates, 0)
      << "winners must come from " << path;
  EXPECT_EQ(autotune_table(), table_first);

  ::unsetenv("TDC_AUTOTUNE_CACHE");
  autotune_clear();
  std::remove(path.c_str());
}

TEST(Autotune, ExplicitSaveLoadMergeAndBadPaths) {
  ::unsetenv("TDC_AUTOTUNE_CACHE");
  autotune_clear();
  const DeviceSpec device = make_a100();
  const ConvShape shape = ConvShape::same(8, 16, 12, 3);
  const ConvAlgo winner = autotune_cost_provider().resolve(device, shape);
  const std::string path = ::testing::TempDir() + "tdc_autotune_explicit.json";
  EXPECT_TRUE(autotune_save(path));
  autotune_clear();
  EXPECT_TRUE(autotune_load(path));
  EXPECT_EQ(autotune_table().size(), 1u);
  EXPECT_EQ(autotune_cost_provider().resolve(device, shape), winner);
  EXPECT_EQ(autotune_stats().timed_candidates, 0);
  EXPECT_FALSE(autotune_load("/nonexistent/dir/autotune.json"));
  EXPECT_FALSE(autotune_save("/nonexistent/dir/autotune.json"));
  autotune_clear();
  std::remove(path.c_str());
}

// The staged Tucker core inherits the descriptor's provider: with the host
// provider a kAuto core must compile to a real CPU kernel, not the emulator.
TEST(TuckerStagedCore, AutoCoreUsesDescriptorProvider) {
  PinnedCalibration pin("50", "10");
  Rng rng(602);
  const ConvShape shape = ConvShape::same(16, 16, 14, 3);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const TuckerFactors f = tucker_decompose(k, {8, 8});
  TuckerDescriptor desc;
  desc.shape = shape;
  desc.exec = TuckerExec::kStaged;
  desc.core_algo = ConvAlgo::kAuto;
  desc.cost = &host_cost_provider();
  const auto plan = compile_tucker_plan(desc, f);
  EXPECT_NE(plan->algo(), ConvAlgo::kTdcCore);
  EXPECT_NE(plan->algo(), ConvAlgo::kReference);
}

// The acceptance criterion as a test: with default options on the CPU
// engine (dense_algo = kAuto, no provider given → host provider), a
// full-width ResNet-18 session compiles no TDC-core dense plan.
TEST(SessionDefaults, ResnetKAutoNeverDeploysEmulator) {
  PinnedCalibration pin("50", "10");
  const ModelSpec model = make_resnet18();
  const auto weights = random_model_weights(model, 603);
  const InferenceSession session = InferenceSession::compile(
      make_a100(), model, weights, /*decisions=*/{}, SessionOptions{});
  std::int64_t convs = 0;
  for (std::int64_t i = 0; i < session.num_ops(); ++i) {
    const auto* conv = dynamic_cast<const ConvPlan*>(&session.op(i));
    if (conv == nullptr || conv->decomposed()) {
      continue;
    }
    ++convs;
    EXPECT_NE(conv->algo(), ConvAlgo::kTdcCore) << session.op_name(i);
    EXPECT_NE(conv->algo(), ConvAlgo::kReference) << session.op_name(i);
  }
  EXPECT_EQ(convs, 20);  // every ResNet-18 convolution stayed dense
}

// The stream probe measures one constant of the host provider's price.
// ResNet-18's selection must not hinge on it: with the compute rates
// pinned, every layer compiles the same algorithm, precision and
// decomposition at 12, 24 and 48 GB/s — the fused fp32 Tucker session, the
// calibrated int8 session under the default TDC_INT8=1 and the dense kAuto
// session (im2col against Winograd, both priced with a bytes term) alike.
TEST(HostCalibration, Resnet18SelectionDoesNotHingeOnStreamBandwidth) {
  const DeviceSpec device = make_a100();
  const ModelSpec model = make_resnet18();
  const auto weights = random_model_weights(model, 604);
  CodesignOptions cd;
  cd.budget = 0.65;
  const std::vector<LayerDecision> decisions =
      run_codesign(device, model.decomposable_conv_shapes(), cd).layers;

  const auto selection = [&](const SessionOptions& options,
                             const std::vector<LayerDecision>& chosen) {
    const InferenceSession session = InferenceSession::compile(
        device, model, weights, chosen, options);
    std::vector<std::string> layers;
    for (std::int64_t i = 0; i < session.num_ops(); ++i) {
      if (const auto* conv = dynamic_cast<const ConvPlan*>(&session.op(i))) {
        layers.push_back(session.op_name(i) + ":" + conv->algo_name() +
                         (conv->quantized() ? ":s8" : ":f32") +
                         (conv->decomposed() ? ":tucker" : ":dense"));
      }
    }
    return layers;
  };

  ::unsetenv("TDC_INT8");
  ::setenv("TDC_HOST_S8_GOPS", "300", 1);
  std::vector<std::string> fp32_at_24;
  std::vector<std::string> int8_at_24;
  std::vector<std::string> dense_at_24;
  for (const char* gbs : {"24", "12", "48"}) {
    SCOPED_TRACE(std::string("TDC_HOST_GBS=") + gbs);
    PinnedCalibration pin("100", gbs);
    SessionOptions options;
    options.use_plan_cache = false;
    const std::vector<std::string> fp32 = selection(options, decisions);
    const std::vector<std::string> dense = selection(options, {});
    const QuantTable table =
        calibrate_quant(device, model, weights, decisions);
    options.quant = &table;
    const std::vector<std::string> int8 = selection(options, decisions);
    if (fp32_at_24.empty()) {
      fp32_at_24 = fp32;
      int8_at_24 = int8;
      dense_at_24 = dense;
      EXPECT_EQ(fp32.size(), 20u);
      EXPECT_EQ(dense.size(), 20u);
      EXPECT_NE(fp32, int8);  // the int8 session does pick s8 plans
      // The dense session mixes both algorithms whose price has a bytes
      // term, so a rate that moved the balance would show here.
      const auto winograd = std::count_if(
          dense.begin(), dense.end(), [](const std::string& layer) {
            return layer.find(":winograd:") != std::string::npos;
          });
      EXPECT_GT(winograd, 0);
      EXPECT_LT(winograd, 20);
    }
    EXPECT_EQ(fp32, fp32_at_24);
    EXPECT_EQ(int8, int8_at_24);
    EXPECT_EQ(dense, dense_at_24);
  }
  ::unsetenv("TDC_HOST_S8_GOPS");
  reset_host_calibration();
}

}  // namespace
}  // namespace tdc
