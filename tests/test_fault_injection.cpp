// Fault-injection and recovery tests (common/fault.h, common/deadline.h,
// the ErrorCode taxonomy of common/check.h, and the crash-safe autotune
// cache): every injected fault must surface as a typed tdc::Error without
// aborting the process, and after the fault the very same process must serve
// a run that is bitwise identical to one from a never-faulted session. The
// EnvDriven suite at the bottom is driven by the CI TDC_FAULT matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_guard.h"
#include "common/check.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/autotune.h"
#include "exec/graph_plan.h"
#include "exec/plan_cache.h"
#include "exec/quantize.h"
#include "exec/workspace_guard.h"
#include "gpusim/device.h"
#include "linalg/gemm.h"
#include "nn/models.h"

namespace tdc {
namespace {

// Every test leaves the process exactly as it found it: no armed faults, no
// finite screening, no ambient deadline (DeadlineScope is RAII already).
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault_disarm_all();
    set_check_finite(false);
  }
};

ErrorCode run_and_code(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a tdc::Error";
  return ErrorCode::kInternal;
}

// Every decomposable conv of `model` Tucker-decomposed at half its channel
// ranks.
std::vector<LayerDecision> half_rank_decisions(const ModelSpec& model) {
  std::vector<LayerDecision> decisions;
  for (const ConvShape& shape : model.decomposable_conv_shapes()) {
    LayerDecision d;
    d.shape = shape;
    d.decomposed = true;
    d.ranks = {std::max<std::int64_t>(shape.c / 2, 1),
               std::max<std::int64_t>(shape.n / 2, 1)};
    decisions.push_back(d);
  }
  return decisions;
}

// Small real inventory for the recovery tests: ResNet-20/CIFAR, pinned
// im2col so compiles are fast and bit-deterministic; dense, or with every
// decomposable conv Tucker-decomposed (the decomposition failure points).
struct Serving {
  explicit Serving(bool tucker = false) {
    SessionOptions options;
    options.dense_algo = ConvAlgo::kIm2col;
    model = make_resnet20_cifar();
    weights = random_model_weights(model, 2026);
    session = InferenceSession::compile(
        make_a100(), model, weights,
        tucker ? half_rank_decisions(model) : std::vector<LayerDecision>{},
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

  Tensor run_clean() const {
    Tensor out({session.output_shape().c, session.output_shape().h,
                session.output_shape().w});
    std::vector<float> ws(workspace.size());
    session.run(x, &out, ws);
    return out;
  }

  ModelSpec model;
  std::vector<LayerWeights> weights;
  InferenceSession session;
  Tensor x;
  Tensor y;
  std::vector<float> workspace;
};

// Calibrates ResNet-20 with every decomposable conv decomposed at half
// rank (four samples, so a width-4 job region runs them in one wave).
QuantTable calibrate_resnet20() {
  const ModelSpec model = make_resnet20_cifar();
  const auto weights = random_model_weights(model, 2026);
  CalibrationOptions opts;
  opts.samples = 4;
  return calibrate_quant(make_a100(), model, weights,
                         half_rank_decisions(model), opts);
}

bool same_tensor_bytes(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Bitwise equality of two calibrations: every layer's parameters and, for
// decomposed layers, the factors.
void expect_same_table(const QuantTable& a, const QuantTable& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(quant_fingerprint(a.layers[i]), quant_fingerprint(b.layers[i]))
        << "layer " << i;
    ASSERT_EQ(a.layers[i].factors == nullptr, b.layers[i].factors == nullptr)
        << "layer " << i;
    if (a.layers[i].factors != nullptr) {
      const TuckerFactors& fa = *a.layers[i].factors;
      const TuckerFactors& fb = *b.layers[i].factors;
      EXPECT_TRUE(same_tensor_bytes(fa.u1, fb.u1) &&
                  same_tensor_bytes(fa.u2, fb.u2) &&
                  same_tensor_bytes(fa.core, fb.core))
          << "layer " << i;
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// ---------------------------------------------------------------------------
// Fault registry semantics.

TEST_F(FaultTest, DisarmedPointNeverFires) {
  EXPECT_FALSE(fault_injected("test.nothing"));
  EXPECT_FALSE(fault_armed("test.nothing"));
  EXPECT_EQ(fault_fire_count("test.nothing"), 0);
}

TEST_F(FaultTest, CountedFiresThenAutoDisarms) {
  fault_arm("test.point", FaultSpec{.skip = 0, .count = 2, .param = 7.5});
  EXPECT_TRUE(fault_armed("test.point"));
  double param = 0.0;
  EXPECT_TRUE(fault_injected("test.point", &param));
  EXPECT_EQ(param, 7.5);
  EXPECT_TRUE(fault_injected("test.point"));
  EXPECT_FALSE(fault_injected("test.point")) << "count exhausted";
  EXPECT_FALSE(fault_armed("test.point"));
  EXPECT_EQ(fault_fire_count("test.point"), 2);
}

TEST_F(FaultTest, SkipDelaysTheFirstFire) {
  fault_arm("test.skip", FaultSpec{.skip = 2, .count = 1});
  EXPECT_FALSE(fault_injected("test.skip"));
  EXPECT_FALSE(fault_injected("test.skip"));
  EXPECT_TRUE(fault_injected("test.skip"));
  EXPECT_FALSE(fault_injected("test.skip"));
  EXPECT_EQ(fault_fire_count("test.skip"), 1);
}

TEST_F(FaultTest, UnlimitedCountStaysArmed) {
  fault_arm("test.forever");  // default count = -1
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(fault_injected("test.forever"));
  }
  EXPECT_TRUE(fault_armed("test.forever"));
  EXPECT_EQ(fault_fire_count("test.forever"), 100);
  fault_disarm("test.forever");
  EXPECT_FALSE(fault_injected("test.forever"));
  EXPECT_EQ(fault_fire_count("test.forever"), 100)
      << "disarm keeps statistics";
}

TEST_F(FaultTest, EnvGrammarParsesParamSkipCountAndLists) {
  ::setenv("TDC_FAULT", "test.a=12.5:1:2;test.b", 1);
  fault_disarm_all();  // forget the old parse; next query re-reads the env
  EXPECT_TRUE(fault_armed("test.a"));
  EXPECT_TRUE(fault_armed("test.b"));
  double param = 0.0;
  EXPECT_FALSE(fault_injected("test.a", &param)) << "skip=1";
  EXPECT_TRUE(fault_injected("test.a", &param));
  EXPECT_EQ(param, 12.5);
  EXPECT_TRUE(fault_injected("test.a"));
  EXPECT_FALSE(fault_injected("test.a")) << "count=2 exhausted";
  EXPECT_TRUE(fault_injected("test.b"));
  EXPECT_FALSE(fault_injected("test.b")) << "env points default to count=1";
  ::unsetenv("TDC_FAULT");
  fault_disarm_all();
}

// ---------------------------------------------------------------------------
// Error taxonomy.

TEST_F(FaultTest, ErrorCodesAndNames) {
  EXPECT_EQ(Error("plain").code(), ErrorCode::kInternal);
  EXPECT_EQ(run_and_code([] { TDC_CHECK(1 == 2); }),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(run_and_code([] { TDC_CHECK_INTERNAL(false, "bug"); }),
            ErrorCode::kInternal);
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidArgument),
               "invalid_argument");
  EXPECT_STREQ(error_code_name(ErrorCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kDataCorruption),
               "data_corruption");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
}

TEST_F(FaultTest, MapResourceFailureTranslatesBadAlloc) {
  EXPECT_EQ(run_and_code([] {
              map_resource_failure("unit test",
                                   [] { throw std::bad_alloc(); });
            }),
            ErrorCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Recovery invariants: typed error, then bitwise-identical rerun.

TEST_F(FaultTest, CompileAllocFailureRecoversBitIdentical) {
  Serving ref;  // never-faulted reference
  const Tensor y_ref = ref.run_clean();

  fault_arm("exec.compile_alloc", FaultSpec{.count = 1});
  EXPECT_EQ(run_and_code([&] { Serving faulted; }),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(fault_fire_count("exec.compile_alloc"), 1);

  Serving recovered;  // fault exhausted: same process compiles clean
  EXPECT_EQ(Tensor::max_abs_diff(recovered.run_clean(), y_ref), 0.0);
}

TEST_F(FaultTest, DecomposeAllocFailureLeavesCacheEmptyAndRecovers) {
  Serving ref(/*tucker=*/true);  // never-faulted reference
  const Tensor y_ref = ref.run_clean();

  // Cold compile: the batched decomposition runs before any plan compiles,
  // so the fault (on a pool worker at 4 threads) surfaces typed on the
  // caller and leaves nothing in the cache.
  const int prev_threads = num_threads();
  set_num_threads(4);
  PlanCache::instance().clear();
  fault_arm("tucker.decompose_alloc", FaultSpec{.count = 1});
  EXPECT_EQ(run_and_code([&] { Serving faulted(/*tucker=*/true); }),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(fault_fire_count("tucker.decompose_alloc"), 1);
  EXPECT_EQ(PlanCache::instance().stats().entries, 0);

  Serving recovered(/*tucker=*/true);
  EXPECT_EQ(Tensor::max_abs_diff(recovered.run_clean(), y_ref), 0.0);

  // Warm compile: every layer is a cache hit, so nothing decomposes and
  // the armed point never fires.
  fault_arm("tucker.decompose_alloc");
  Serving warm(/*tucker=*/true);
  EXPECT_EQ(fault_fire_count("tucker.decompose_alloc"), 0);
  EXPECT_EQ(Tensor::max_abs_diff(warm.run_clean(), y_ref), 0.0);
  set_num_threads(prev_threads);
}

TEST_F(FaultTest, CalibrateAllocFailureIsTypedAndRecovers) {
  // Width-1 regions on four threads (the int8 fleet's configuration): the
  // samples still fan out as four jobs, so the fault fires inside a job,
  // on a pool worker or on the caller.
  const int prev_threads = num_threads();
  const ArenaConfig prev_arenas = arena_config();
  set_num_threads(4);
  set_arena_config(ArenaConfig{.inter_op = 0, .intra_op = 1});
  ASSERT_EQ(job_width(), 4);
  const QuantTable reference = calibrate_resnet20();

  for (const std::int64_t skip : {0, 2, 3}) {
    fault_arm("quantize.calibrate_alloc", FaultSpec{.skip = skip, .count = 1});
    EXPECT_EQ(run_and_code([] { (void)calibrate_resnet20(); }),
              ErrorCode::kResourceExhausted)
        << "skip " << skip;
    EXPECT_EQ(fault_fire_count("quantize.calibrate_alloc"), 1);
    fault_disarm_all();
    expect_same_table(calibrate_resnet20(), reference);
  }
  set_num_threads(prev_threads);
  set_arena_config(prev_arenas);
}

// Calibration decomposes each Tucker layer exactly once: its reference
// session compiles from the factors it just produced. With the point
// skipping as many hits as there are decomposed layers it never fires; one
// hit earlier, the last decomposition fails typed and no table comes back.
TEST_F(FaultTest, CalibrationDecomposesEachTuckerLayerOnce) {
  const std::int64_t layers = static_cast<std::int64_t>(
      half_rank_decisions(make_resnet20_cifar()).size());
  fault_arm("tucker.decompose_alloc", FaultSpec{.skip = layers, .count = 1});
  const QuantTable table = calibrate_resnet20();
  EXPECT_EQ(fault_fire_count("tucker.decompose_alloc"), 0);
  EXPECT_FALSE(table.layers.empty());

  fault_disarm_all();
  fault_arm("tucker.decompose_alloc",
            FaultSpec{.skip = layers - 1, .count = 1});
  std::optional<QuantTable> faulted;
  EXPECT_EQ(run_and_code([&] { faulted = calibrate_resnet20(); }),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(fault_fire_count("tucker.decompose_alloc"), 1);
  EXPECT_FALSE(faulted.has_value());
}

TEST_F(FaultTest, RunAllocFailureLeavesSessionReusable) {
  Serving s;
  const Tensor y_ref = s.run_clean();
  fault_arm("exec.run_alloc", FaultSpec{.count = 1});
  EXPECT_EQ(run_and_code([&] { s.session.run(s.x); }),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(Tensor::max_abs_diff(s.session.run(s.x), y_ref), 0.0);
}

TEST_F(FaultTest, NanPoisonedOpSurfacesAsDataCorruption) {
  Serving s;
  const Tensor y_ref = s.run_clean();
  set_check_finite(true);
  fault_arm("exec.op_nan", FaultSpec{.count = 1});
  try {
    s.session.run(s.x, &s.y, s.workspace);
    FAIL() << "expected kDataCorruption";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDataCorruption);
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("op '"), std::string::npos)
        << "the error must name the poisoned op: " << e.what();
  }
  // Fault exhausted; the same session and workspace serve a clean run.
  s.session.run(s.x, &s.y, s.workspace);
  EXPECT_EQ(Tensor::max_abs_diff(s.y, y_ref), 0.0);
}

TEST_F(FaultTest, NonFiniteInputRejectedAsInvalidArgument) {
  Serving s;
  const Tensor y_ref = s.run_clean();
  set_check_finite(true);
  Tensor bad = s.x;
  bad[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(run_and_code([&] { s.session.run(bad, &s.y, s.workspace); }),
            ErrorCode::kInvalidArgument);
  s.session.run(s.x, &s.y, s.workspace);
  EXPECT_EQ(Tensor::max_abs_diff(s.y, y_ref), 0.0);
}

TEST_F(FaultTest, FiniteScreeningOffByDefaultLetsNanThrough) {
  Serving s;
  fault_arm("exec.op_nan", FaultSpec{.count = 1});
  // Screening disabled: the poison propagates instead of throwing — the
  // screen must never tax runs that did not opt in.
  EXPECT_NO_THROW(s.session.run(s.x, &s.y, s.workspace));
  EXPECT_EQ(fault_fire_count("exec.op_nan"), 1);
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST_F(FaultTest, UnarmedDeadlineNeverExpires) {
  const Deadline none;
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(none.expired());
  EXPECT_EQ(none.remaining_s(), std::numeric_limits<double>::infinity());
  Serving s;
  EXPECT_NO_THROW(s.session.run(s.x, &s.y, s.workspace, none));
}

TEST_F(FaultTest, ExpiredDeadlineCancelsRunThenRecovers) {
  Serving s;
  const Tensor y_ref = s.run_clean();
  EXPECT_EQ(run_and_code([&] {
              s.session.run(s.x, &s.y, s.workspace, Deadline::after(0.0));
            }),
            ErrorCode::kDeadlineExceeded);
  // The scope is gone with the throw: the next plain run is clean and
  // bitwise identical to the never-faulted reference.
  s.session.run(s.x, &s.y, s.workspace);
  EXPECT_EQ(Tensor::max_abs_diff(s.y, y_ref), 0.0);
}

TEST_F(FaultTest, ExpiredDeadlineCancelsCompile) {
  SessionOptions options;
  options.dense_algo = ConvAlgo::kIm2col;
  const ModelSpec model = make_resnet20_cifar();
  const auto weights = random_model_weights(model, 2026);
  DeadlineScope scope(Deadline::after(0.0));
  EXPECT_EQ(run_and_code([&] {
              InferenceSession::compile(make_a100(), model, weights, {},
                                        options);
            }),
            ErrorCode::kDeadlineExceeded);
}

TEST_F(FaultTest, GemmPollsBetweenCacheBlockBands) {
  const std::int64_t n = 256;
  std::vector<float> a(static_cast<std::size_t>(n * n), 1.0f);
  std::vector<float> b(a), c(a);
  DeadlineScope scope(Deadline::after(0.0));
  EXPECT_EQ(run_and_code([&] { gemm(n, n, n, a, b, c); }),
            ErrorCode::kDeadlineExceeded);
}

TEST_F(FaultTest, DeadlineRidesIntoPoolWorkersOfBatchedRun) {
  const int prev_threads = num_threads();
  set_num_threads(4);
  Serving s;
  const std::int64_t batch = 4;
  Rng rng(11);
  const Tensor xb = Tensor::random_uniform(
      {batch, s.session.input_shape().c, s.session.input_shape().h,
       s.session.input_shape().w},
      rng, -1.0f, 1.0f);
  Tensor yb({batch, s.session.output_shape().c, s.session.output_shape().h,
             s.session.output_shape().w});
  std::vector<float> ws(static_cast<std::size_t>(
      s.session.batched_workspace_bytes(batch) / sizeof(float)));
  EXPECT_EQ(run_and_code([&] {
              s.session.run_batched(xb, &yb, ws, Deadline::after(0.0));
            }),
            ErrorCode::kDeadlineExceeded)
      << "expiry must be observed by graph walks running on pool workers";
  // Pool and session stay reusable: the clean batched rerun matches four
  // independent single-image runs bitwise.
  s.session.run_batched(xb, &yb, ws);
  const std::int64_t x_stride = s.session.input_shape().floats();
  const std::int64_t y_stride = s.session.output_shape().floats();
  for (std::int64_t i = 0; i < batch; ++i) {
    Tensor xi({s.session.input_shape().c, s.session.input_shape().h,
               s.session.input_shape().w});
    for (std::int64_t j = 0; j < x_stride; ++j) {
      xi[j] = xb[i * x_stride + j];
    }
    Tensor yi({s.session.output_shape().c, s.session.output_shape().h,
               s.session.output_shape().w});
    std::vector<float> wsi(s.workspace.size());
    s.session.run(xi, &yi, wsi);
    for (std::int64_t j = 0; j < y_stride; ++j) {
      EXPECT_EQ(yi[j], yb[i * y_stride + j]) << "image " << i;
    }
  }
  set_num_threads(prev_threads);
}

TEST_F(FaultTest, NestedScopesKeepTheEarlierDeadline) {
  DeadlineScope outer(Deadline::after(100.0));
  {
    DeadlineScope later(Deadline::after(1e6));
    // The inner, later deadline must not extend the outer budget.
    EXPECT_LE(detail::active_deadline()->remaining_s(), 100.0);
  }
  {
    DeadlineScope earlier(Deadline::after(0.0));
    EXPECT_EQ(run_and_code([] { deadline_poll("nested test"); }),
              ErrorCode::kDeadlineExceeded);
  }
  EXPECT_NO_THROW(deadline_poll("outer budget still generous"));
}

TEST_F(FaultTest, InjectedOpDelayBlowsOnlyTightBudgets) {
  Serving s;
  const Tensor y_ref = s.run_clean();
  // 50 ms stall on the first op, 5 ms budget: the next op boundary poll
  // must cancel the run.
  fault_arm("exec.op_delay", FaultSpec{.count = 1, .param = 50.0});
  EXPECT_EQ(run_and_code([&] {
              s.session.run(s.x, &s.y, s.workspace, Deadline::after(0.005));
            }),
            ErrorCode::kDeadlineExceeded);
  // Same stall under a generous budget: slow but correct.
  fault_arm("exec.op_delay", FaultSpec{.count = 1, .param = 50.0});
  s.session.run(s.x, &s.y, s.workspace, Deadline::after(60.0));
  EXPECT_EQ(Tensor::max_abs_diff(s.y, y_ref), 0.0);
}

// ---------------------------------------------------------------------------
// Crash-safe autotune cache.

TEST_F(FaultTest, TruncatedCacheFileIsQuarantinedWithTypedError) {
  ::unsetenv("TDC_AUTOTUNE_CACHE");
  autotune_clear();
  // Pointwise shape: resolves without timing, so populating is instant.
  autotune_cost_provider().resolve(make_a100(), ConvShape::same(8, 8, 10, 1));
  const std::string path =
      ::testing::TempDir() + "tdc_fault_truncated.json";
  const std::string quarantine = path + ".corrupt";
  std::remove(path.c_str());
  std::remove(quarantine.c_str());
  ASSERT_TRUE(autotune_save(path));

  const std::string body = read_file(path);
  ASSERT_FALSE(body.empty());
  write_file(path, body.substr(0, body.size() / 2));  // torn write
  autotune_clear();
  EXPECT_EQ(run_and_code([&] { autotune_load(path); }),
            ErrorCode::kDataCorruption);
  EXPECT_FALSE(file_exists(path)) << "corrupt file must be moved aside";
  EXPECT_TRUE(file_exists(quarantine));

  // The path is clean again: a fresh save/load round-trips.
  autotune_cost_provider().resolve(make_a100(), ConvShape::same(8, 8, 10, 1));
  ASSERT_TRUE(autotune_save(path));
  autotune_clear();
  EXPECT_TRUE(autotune_load(path));
  EXPECT_EQ(autotune_table().size(), 1u);
  autotune_clear();
  std::remove(path.c_str());
  std::remove(quarantine.c_str());
}

TEST_F(FaultTest, WrongVersionCacheFileIsQuarantined) {
  const std::string path = ::testing::TempDir() + "tdc_fault_version.json";
  const std::string quarantine = path + ".corrupt";
  std::remove(quarantine.c_str());
  write_file(path, "{\n  \"version\": 1,\n  \"entries\": [\n  ]\n}\n");
  autotune_clear();
  EXPECT_EQ(run_and_code([&] { autotune_load(path); }),
            ErrorCode::kDataCorruption);
  EXPECT_FALSE(file_exists(path));
  EXPECT_TRUE(file_exists(quarantine));
  autotune_clear();
  std::remove(quarantine.c_str());
}

TEST_F(FaultTest, BadChecksumCacheFileIsQuarantined) {
  ::unsetenv("TDC_AUTOTUNE_CACHE");
  autotune_clear();
  autotune_cost_provider().resolve(make_a100(), ConvShape::same(8, 8, 10, 1));
  const std::string path = ::testing::TempDir() + "tdc_fault_checksum.json";
  const std::string quarantine = path + ".corrupt";
  std::remove(quarantine.c_str());
  ASSERT_TRUE(autotune_save(path));
  std::string body = read_file(path);
  const std::size_t at = body.find("\"checksum\": \"");
  ASSERT_NE(at, std::string::npos);
  // Flip one checksum digit (valid hex, wrong value).
  const std::size_t digit = at + std::string("\"checksum\": \"").size();
  body[digit] = body[digit] == '0' ? '1' : '0';
  write_file(path, body);
  autotune_clear();
  EXPECT_EQ(run_and_code([&] { autotune_load(path); }),
            ErrorCode::kDataCorruption);
  EXPECT_FALSE(file_exists(path));
  EXPECT_TRUE(file_exists(quarantine));
  autotune_clear();
  std::remove(quarantine.c_str());
}

TEST_F(FaultTest, CorruptSaveFaultProducesLoadRejectedFile) {
  ::unsetenv("TDC_AUTOTUNE_CACHE");
  autotune_clear();
  autotune_cost_provider().resolve(make_a100(), ConvShape::same(8, 8, 10, 1));
  const std::string path = ::testing::TempDir() + "tdc_fault_torn_save.json";
  const std::string quarantine = path + ".corrupt";
  std::remove(quarantine.c_str());
  fault_arm("autotune.corrupt_save", FaultSpec{.count = 1});
  ASSERT_TRUE(autotune_save(path)) << "the torn write itself succeeds";
  autotune_clear();
  EXPECT_EQ(run_and_code([&] { autotune_load(path); }),
            ErrorCode::kDataCorruption)
      << "integrity checking must catch the torn file";
  // Fault exhausted: the next save is intact.
  autotune_cost_provider().resolve(make_a100(), ConvShape::same(8, 8, 10, 1));
  ASSERT_TRUE(autotune_save(path));
  autotune_clear();
  EXPECT_TRUE(autotune_load(path));
  autotune_clear();
  std::remove(path.c_str());
  std::remove(quarantine.c_str());
}

TEST_F(FaultTest, ImplicitEnvLoadDegradesToRetuningOnCorruption) {
  const std::string path = ::testing::TempDir() + "tdc_fault_env_load.json";
  const std::string quarantine = path + ".corrupt";
  std::remove(quarantine.c_str());
  write_file(path, "definitely not json");
  ::setenv("TDC_AUTOTUNE_CACHE", path.c_str(), 1);
  autotune_clear();  // forgets the env decision → file re-read on next use
  // Serving must not throw on a corrupt cache it merely *could* have used:
  // the file is quarantined and the shape re-tuned.
  ConvAlgo resolved = ConvAlgo::kAuto;
  EXPECT_NO_THROW(resolved = autotune_cost_provider().resolve(
                      make_a100(), ConvShape::same(8, 8, 10, 1)));
  EXPECT_NE(resolved, ConvAlgo::kAuto);
  EXPECT_FALSE(file_exists(path) && read_file(path) == "definitely not json")
      << "the corrupt file must not survive at the cache path";
  EXPECT_TRUE(file_exists(quarantine));
  ::unsetenv("TDC_AUTOTUNE_CACHE");
  autotune_clear();
  std::remove(path.c_str());
  std::remove(quarantine.c_str());
}

// ---------------------------------------------------------------------------
// Parallel runtime observability (satellite a).

TEST_F(FaultTest, ConcurrentTopLevelCallerIsCountedAsSerialFallback) {
  const int prev_threads = num_threads();
  const ArenaConfig prev_arenas = arena_config();
  set_num_threads(4);
  // Concurrent top-level callers are normally admitted as separate arena
  // regions now; pinning inter_op = 1 recreates the exhausted-arena case so
  // the counted degradation path stays deterministic to exercise. Width 4
  // is explicit: a width-1 region runs inline and never takes a slot.
  set_arena_config(ArenaConfig{.inter_op = 1, .intra_op = 4});
  // Prime the pool so its creation races nothing below.
  parallel_for(0, 8, 1, [](std::int64_t, std::int64_t) {});
  const ParallelStats before = parallel_stats();

  std::atomic<bool> hold{true};
  std::atomic<bool> started{false};
  std::thread occupant([&] {
    parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t) {
      started.store(true);
      while (hold.load()) {
        std::this_thread::yield();
      }
    });
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  // The occupant holds the only arena slot: this top-level region must fall
  // back to inline serial execution — correct, and counted.
  std::atomic<std::int64_t> sum{0};
  parallel_for(0, 4, 1, [&](std::int64_t b, std::int64_t e) {
    sum.fetch_add(e - b);
  });
  EXPECT_EQ(sum.load(), 4) << "the fallback still runs the whole range";
  const ParallelStats during = parallel_stats();
  EXPECT_GE(during.serial_fallbacks, before.serial_fallbacks + 1);
  hold.store(false);
  occupant.join();

  // With the slot free again, regions fan out normally.
  parallel_for(0, 8, 1, [](std::int64_t, std::int64_t) {});
  EXPECT_GT(parallel_stats().pool_regions, before.pool_regions);
  set_arena_config(prev_arenas);
  set_num_threads(prev_threads);
}

// ---------------------------------------------------------------------------
// EnvDriven: the CI TDC_FAULT matrix entry point. Each matrix job runs
//   TDC_FAULT=<point...> test_fault_injection --gtest_filter='EnvDriven*'
// and this test proves the ambient fault surfaces as a typed error with full
// recovery. Without TDC_FAULT it skips.

TEST(EnvDriven, AmbientFaultSurfacesTypedAndRecovers) {
  const char* env = std::getenv("TDC_FAULT");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "TDC_FAULT not set";
  }
  const std::string spec(env);
  const std::string point = spec.substr(0, spec.find_first_of("=:;"));
  fault_disarm_all();  // fresh parse of the ambient TDC_FAULT
  ASSERT_TRUE(fault_armed(point)) << "TDC_FAULT=" << spec;

  if (point == "exec.compile_alloc") {
    bool threw = false;
    try {
      Serving faulted;
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    }
    EXPECT_TRUE(threw);
    Serving recovered;
    EXPECT_EQ(Tensor::max_abs_diff(recovered.run_clean(),
                                   recovered.run_clean()),
              0.0);
  } else if (point == "tucker.decompose_alloc") {
    PlanCache::instance().clear();  // a cold compile decomposes every layer
    bool threw = false;
    try {
      Serving faulted(/*tucker=*/true);
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    }
    EXPECT_TRUE(threw);
    Serving recovered(/*tucker=*/true);
    EXPECT_EQ(Tensor::max_abs_diff(recovered.run_clean(),
                                   recovered.run_clean()),
              0.0);
  } else if (point == "quantize.calibrate_alloc") {
    bool threw = false;
    try {
      (void)calibrate_resnet20();
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    }
    EXPECT_TRUE(threw);
    expect_same_table(calibrate_resnet20(), calibrate_resnet20());
  } else if (point == "exec.run_alloc") {
    Serving s;
    bool threw = false;
    try {
      s.session.run(s.x);
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(Tensor::max_abs_diff(s.session.run(s.x), s.run_clean()), 0.0);
  } else if (point == "exec.op_nan") {
    set_check_finite(true);
    Serving s;
    bool threw = false;
    try {
      s.session.run(s.x, &s.y, s.workspace);
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.code(), ErrorCode::kDataCorruption);
    }
    EXPECT_TRUE(threw);
    s.session.run(s.x, &s.y, s.workspace);
    EXPECT_EQ(Tensor::max_abs_diff(s.y, s.run_clean()), 0.0);
    set_check_finite(false);
  } else if (point == "exec.op_delay") {
    Serving s;
    bool threw = false;
    try {
      s.session.run(s.x, &s.y, s.workspace, Deadline::after(0.005));
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    }
    EXPECT_TRUE(threw);
    s.session.run(s.x, &s.y, s.workspace);
    EXPECT_EQ(Tensor::max_abs_diff(s.y, s.run_clean()), 0.0);
  } else if (point == "exec.run_hidden_alloc") {
    // Inert unless the allocation guard is armed: arm it so the planted
    // hidden allocation trips the run's DenyAllocGuard.
    Serving s;
    set_alloc_guard(true);
    bool threw = false;
    try {
      s.session.run(s.x, &s.y, s.workspace);
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.code(), ErrorCode::kInternal);
    }
    set_alloc_guard(false);
    EXPECT_TRUE(threw);
    s.session.run(s.x, &s.y, s.workspace);
    EXPECT_EQ(Tensor::max_abs_diff(s.y, s.run_clean()), 0.0);
  } else if (point == "exec.op_overrun") {
    // Inert unless canary bands were compiled into the session: freeze
    // them on for this session so the planted overrun lands on a band.
    const bool ws_prev = workspace_guard_enabled();
    set_workspace_guard(true);
    Serving s;
    bool threw = false;
    try {
      s.session.run(s.x, &s.y, s.workspace);
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.code(), ErrorCode::kDataCorruption);
    }
    EXPECT_TRUE(threw);
    s.session.run(s.x, &s.y, s.workspace);
    EXPECT_EQ(Tensor::max_abs_diff(s.y, s.run_clean()), 0.0);
    set_workspace_guard(ws_prev);
  } else if (point == "autotune.corrupt_save") {
    ::unsetenv("TDC_AUTOTUNE_CACHE");
    autotune_clear();
    autotune_cost_provider().resolve(make_a100(),
                                     ConvShape::same(8, 8, 10, 1));
    const std::string path =
        ::testing::TempDir() + "tdc_envdriven_torn.json";
    ASSERT_TRUE(autotune_save(path));
    autotune_clear();
    bool threw = false;
    try {
      autotune_load(path);
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.code(), ErrorCode::kDataCorruption);
    }
    EXPECT_TRUE(threw);
    autotune_cost_provider().resolve(make_a100(),
                                     ConvShape::same(8, 8, 10, 1));
    ASSERT_TRUE(autotune_save(path));
    autotune_clear();
    EXPECT_TRUE(autotune_load(path));
    autotune_clear();
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
  } else {
    FAIL() << "TDC_FAULT names an unknown point: " << point;
  }

  EXPECT_GE(fault_fire_count(point), 1) << "the ambient fault never fired";
  fault_disarm_all();
}

}  // namespace
}  // namespace tdc
