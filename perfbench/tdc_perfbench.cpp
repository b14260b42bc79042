// Serving benchmark for ResNet-18 under the Tucker codesign: one workload
// per process, end-to-end metrics untraced, per-layer metrics from a
// separate traced run (--trace 1). Every layer is timed from outside,
// around calls to its public functions; nothing in src/ is instrumented.
//
//   tdc_perfbench --workload tucker-fp32-latency --seed 1 --seconds 15
//                 --trace 0 [--out-dir DIR]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics ({name: {value, unit}}). README.md in this directory
// describes the workloads, the metrics and the thread configurations.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/codesign.h"
#include "exec/graph_plan.h"
#include "exec/microbench.h"
#include "exec/plan_cache.h"
#include "exec/quantize.h"
#include "gpusim/device.h"
#include "nn/models.h"
#include "serving/inference_server.h"
#include "tucker/flops.h"
#include "tucker/tucker.h"

namespace {

using Clock = std::chrono::steady_clock;
using tdc::Tensor;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ workloads --

// Everything that differs between workloads is a constant here; nothing is
// derived from the host or from a previous run.
struct Workload {
  const char* name;
  int num_threads;      // set_num_threads, before anything else runs
  int intra_op;         // arena width of one region (0 = num_threads)
  bool tucker;          // run the codesign and compile decomposed layers
  bool int8;            // calibrate and serve with a QuantTable
  bool server;          // serve through InferenceServer (else a session)
  int replicas;         // server replicas
  std::int64_t max_batch;  // coalescer batch bound (1 = off)
  int clients;          // closed-loop callers, or open-loop sender threads
  double open_rate_ips;    // > 0: open loop at this fixed arrival rate
  int setup_builds;     // cold builds per run; setup_s is their median
  double tail_pct;      // percentile reported as latency_tail_ms
};

// The open-loop rate is about half of what the dense server completes when
// saturated on a contended 4-vCPU host (≈ 16 img/s; ≈ 41 img/s when the
// host is quiet), so the queue stays short and a service-time wobble is not
// amplified by queueing. At 12 img/s on the contended host the p50 of
// identical runs spread 27%; at 8 img/s it stayed within 86–93 ms.
constexpr double kDenseOpenRateIps = 8.0;

constexpr Workload kWorkloads[] = {
    {"tucker-fp32-latency", 2, 0, true, false, false, 1, 1, 1, 0.0, 5, 90.0},
    {"tucker-int8-fleet", 4, 1, true, true, true, 4, 1, 4, 0.0, 3, 90.0},
    {"dense-fp32-open", 4, 2, false, false, true, 2, 4, 4,
     kDenseOpenRateIps, 7, 80.0},
};

constexpr std::uint64_t kWeightSeed = 20230225;
constexpr double kCodesignBudget = 0.65;
constexpr int kInputPool = 8;

// Runs body(i) for i in [0, n) on a thread each and waits for all of them.
template <class F>
void on_threads(int n, const F& body) {
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&body, i] { body(i); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// ----------------------------------------------------------------- host --

// A fixed scalar loop; its time before and after the run tells a slow host
// apart from a slow program.
double spin_ms() {
  const auto t0 = Clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return seconds_between(t0, Clock::now()) * 1e3;
}

// Keeps every vCPU busy for a fixed time so the host has ramped up before
// the first timed phase.
void warm_up_host(double seconds) {
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  const auto vcpus =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  on_threads(vcpus, [end](int) {
    volatile std::uint64_t x = 1;
    while (Clock::now() < end) {
      for (int k = 0; k < 10000; ++k) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
    }
  });
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- stats --

double median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Latency at percentile `pct`: the sample with floor(n * (1 - pct/100))
// samples beyond it in the sorted values.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

Tail tail_at(std::vector<double> xs, double pct) {
  Tail t;
  t.samples = xs.size();
  t.percentile = pct;
  if (xs.empty()) {
    return t;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  t.beyond = std::min(
      n - 1, static_cast<std::size_t>(static_cast<double>(n) *
                                      (1.0 - pct / 100.0)));
  t.value = xs[n - 1 - t.beyond];
  return t;
}

double rel_l2(const Tensor& a, const Tensor& ref) {
  double num = 0.0;
  double den = 0.0;
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    const double d = static_cast<double>(a.raw()[i]) - ref.raw()[i];
    num += d * d;
    den += static_cast<double>(ref.raw()[i]) * ref.raw()[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---------------------------------------------------------------- spans --

// Spans are kept in memory and written once, at the end, as Chrome
// trace-event JSON (loads in Perfetto / chrome://tracing).
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;  // index into the span list, -1 for a root
  std::int64_t request = -1;
  int tid = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  std::int64_t add(std::string name, Clock::time_point t0,
                   Clock::time_point t1, std::int64_t parent = -1,
                   std::int64_t request = -1, int tid = 0) {
    spans_.push_back(Span{std::move(name), us(t0), us(t1), parent, request,
                          tid});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void append(const std::vector<Span>& more) {
    spans_.insert(spans_.end(), more.begin(), more.end());
  }
  std::size_t size() const { return spans_.size(); }

  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %lld, \"request\": %lld}}%s\n",
                   s.name.c_str(), s.tid, s.start_us, s.end_us - s.start_us,
                   i, static_cast<long long>(s.parent),
                   static_cast<long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ------------------------------------------------------------ the build --

struct Model {
  tdc::DeviceSpec device = tdc::make_a100();
  tdc::ModelSpec spec = tdc::make_resnet18();
  std::vector<tdc::LayerWeights> weights =
      tdc::random_model_weights(spec, kWeightSeed);
};

// One ready-to-serve build and the time each of its phases took.
struct Build {
  tdc::CodesignResult codesign;
  std::unique_ptr<tdc::QuantTable> quant;
  tdc::SessionOptions session_options;
  std::optional<tdc::InferenceSession> session;  // session workloads
  std::optional<tdc::InferenceServer> server;    // server workloads

  // Phase boundaries: host calibration, codesign, quantization
  // calibration, compile. A phase the workload skips has zero length.
  Clock::time_point t[5];
  tdc::PlanCache::Stats compile_cache;  // PlanCache delta over compile

  double phase_s(int i) const { return seconds_between(t[i], t[i + 1]); }
  double total_s() const { return seconds_between(t[0], t[4]); }
};

constexpr const char* kPhaseNames[4] = {
    "exec.host_calibration", "core.codesign", "exec.quantize_calibrate",
    "exec.compile_cold"};

tdc::ServerOptions server_options(const Workload& w,
                                  const tdc::SessionOptions& session) {
  tdc::ServerOptions o;
  o.replicas = w.replicas;
  o.coalescer.max_batch = w.max_batch;
  o.session = session;
  return o;
}

// A cold build from model and weights: the plan cache and the host
// calibration are dropped first, so every phase runs from scratch.
std::unique_ptr<Build> cold_build(const Workload& w, const Model& m) {
  tdc::PlanCache::instance().clear();
  tdc::reset_host_calibration();
  auto b = std::make_unique<Build>();
  b->t[0] = Clock::now();
  (void)tdc::host_calibration();
  b->t[1] = b->t[2] = Clock::now();
  if (w.tucker) {
    tdc::CodesignOptions opts;
    opts.budget = kCodesignBudget;
    b->codesign = tdc::run_codesign(
        m.device, m.spec.decomposable_conv_shapes(), opts);
    b->t[2] = Clock::now();
  }
  b->t[3] = b->t[2];
  if (w.int8) {
    b->quant = std::make_unique<tdc::QuantTable>(
        tdc::calibrate_quant(m.device, m.spec, m.weights, b->codesign.layers));
    b->session_options.quant = b->quant.get();
    b->t[3] = Clock::now();
  }
  const tdc::PlanCache::Stats before = tdc::PlanCache::instance().stats();
  if (w.server) {
    b->server.emplace(tdc::InferenceServer::compile(
        m.device, m.spec, m.weights, b->codesign.layers,
        server_options(w, b->session_options)));
  } else {
    b->session.emplace(tdc::InferenceSession::compile(
        m.device, m.spec, m.weights, b->codesign.layers, b->session_options));
  }
  b->t[4] = Clock::now();
  const tdc::PlanCache::Stats after = tdc::PlanCache::instance().stats();
  b->compile_cache.hits = after.hits - before.hits;
  b->compile_cache.misses = after.misses - before.misses;
  b->compile_cache.entries = after.entries;
  return b;
}

// ------------------------------------------------------------ the loads --

struct Sample {
  double latency_s = 0.0;
  double late_s = 0.0;  // open loop: send time minus due time
  double start_us = 0.0;
  double end_us = 0.0;
  int client = 0;
  bool ok = false;
};

struct LoadResult {
  std::vector<Sample> samples;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;      // threw, or output differed from reference
  std::int64_t mismatched = 0;  // subset of failed
  double window_s = 0.0;        // window start to last completion
};

// Serves one request through the workload's path into *y.
using ServeFn = std::function<void(const Tensor& x, Tensor* y, int client)>;

LoadResult run_closed_loop(const ServeFn& serve,
                           const std::vector<Tensor>& inputs,
                           const std::vector<Tensor>& refs,
                           const tdc::OpShape& out, int clients,
                           double seconds, const Tracer& tracer) {
  std::vector<std::vector<Sample>> per(static_cast<std::size_t>(clients));
  std::vector<std::int64_t> mismatched(static_cast<std::size_t>(clients), 0);
  std::vector<Clock::time_point> last(static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  auto body = [&](int c) {
    Tensor y({out.c, out.h, out.w});
    auto& mine = per[static_cast<std::size_t>(c)];
    mine.reserve(4096);
    for (std::size_t k = static_cast<std::size_t>(c);; k += clients) {
      const auto t0 = Clock::now();
      if (t0 >= end) {
        break;
      }
      const std::size_t idx = k % inputs.size();
      Sample s;
      s.client = c;
      bool served = true;
      try {
        serve(inputs[idx], &y, c);
      } catch (const tdc::Error&) {
        served = false;
      }
      const auto t1 = Clock::now();
      s.ok = served && bitwise_equal(y, refs[idx]);
      if (served && !s.ok) {
        ++mismatched[static_cast<std::size_t>(c)];
      }
      s.latency_s = seconds_between(t0, t1);
      s.start_us = tracer.us(t0);
      s.end_us = tracer.us(t1);
      last[static_cast<std::size_t>(c)] = t1;
      mine.push_back(s);
    }
  };
  on_threads(clients, body);
  LoadResult r;
  Clock::time_point finish = start;
  for (int c = 0; c < clients; ++c) {
    for (const Sample& s : per[static_cast<std::size_t>(c)]) {
      r.samples.push_back(s);
    }
    r.mismatched += mismatched[static_cast<std::size_t>(c)];
    finish = std::max(finish, last[static_cast<std::size_t>(c)]);
  }
  r.attempted = static_cast<std::int64_t>(r.samples.size());
  for (const Sample& s : r.samples) {
    r.failed += s.ok ? 0 : 1;
  }
  r.window_s = seconds_between(start, finish);
  return r;
}

// Poisson arrivals conditioned on their count: a fixed number of requests
// (rate × seconds) at sorted uniform times over the window, drawn from
// --seed along with the image each request carries. Each request is timed
// from when it was due, so a stalled sender charges the wait to every
// request behind it.
LoadResult run_open_loop(const ServeFn& serve,
                         const std::vector<Tensor>& inputs,
                         const std::vector<Tensor>& refs,
                         const tdc::OpShape& out, int senders, double rate,
                         double seconds, std::uint64_t seed,
                         const Tracer& tracer) {
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> due(n);
  tdc::Rng rng(seed ^ 0xA5A5'0F0F'3C3C'9696ULL);
  for (double& d : due) {
    d = rng.uniform(0.0, seconds);
  }
  std::sort(due.begin(), due.end());
  std::vector<std::size_t> which(n);
  for (std::size_t k = 0; k < n; ++k) {
    which[k] = static_cast<std::size_t>(rng.uniform_index(inputs.size()));
  }

  std::vector<Sample> samples(n);
  std::vector<Clock::time_point> done(n);
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> mismatched{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto body = [&](int c) {
    Tensor y({out.c, out.h, out.w});
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= n) {
        break;
      }
      const auto due_at = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(due[k]));
      std::this_thread::sleep_until(due_at);
      const auto sent = Clock::now();
      Sample& s = samples[k];
      s.client = c;
      bool served = true;
      try {
        serve(inputs[which[k]], &y, c);
      } catch (const tdc::Error&) {
        served = false;
      }
      const auto t1 = Clock::now();
      s.ok = served && bitwise_equal(y, refs[which[k]]);
      if (served && !s.ok) {
        mismatched.fetch_add(1);
      }
      s.latency_s = seconds_between(due_at, t1);
      s.late_s = seconds_between(due_at, sent);
      s.start_us = tracer.us(due_at);
      s.end_us = tracer.us(t1);
      done[k] = t1;
    }
  };
  on_threads(senders, body);
  LoadResult r;
  r.samples = std::move(samples);
  r.attempted = static_cast<std::int64_t>(n);
  for (const Sample& s : r.samples) {
    r.failed += s.ok ? 0 : 1;
  }
  r.mismatched = mismatched.load();
  Clock::time_point finish = start;
  for (const auto& t : done) {
    finish = std::max(finish, t);
  }
  r.window_s = seconds_between(start, finish);
  return r;
}

// -------------------------------------------------------------- replays --

// Op classes of the per-layer table, in print order.
enum class OpClass {
  kConvTuckerF32,
  kConvS8,
  kConvIm2colF32,
  kConvWinogradF32,
  kBatchNorm,
  kRelu,
  kAdd,
  kPool,
  kFc,
  kOther,
};
constexpr int kNumClasses = 10;
constexpr const char* kClassNames[kNumClasses] = {
    "conv_tucker_f32", "conv_s8", "conv_im2col_f32", "conv_winograd_f32",
    "bn",              "relu",    "add",             "pool",
    "fc",              "other"};

struct OpInfo {
  OpClass cls = OpClass::kOther;
  double flops = 0.0;  // arithmetic ops (multiply-add = 2) of a conv
  double bytes = 0.0;  // elementwise: inputs + output, from tensor sizes
};

std::vector<OpInfo> classify_ops(const tdc::InferenceSession& s,
                                 const tdc::ModelSpec& spec,
                                 const std::vector<tdc::LayerDecision>& dec) {
  // Decisions cover the decomposable convolutions in layer order (the same
  // alignment InferenceSession::compile applies).
  std::map<std::size_t, const tdc::LayerDecision*> dec_for;
  std::size_t k = 0;
  for (std::size_t i = 0; i < spec.layers.size() && !dec.empty(); ++i) {
    const tdc::LayerSpec& l = spec.layers[i];
    if (l.kind == tdc::LayerKind::kConv && (l.conv.r > 1 || l.conv.s > 1)) {
      dec_for[i] = &dec[k++];
    }
  }
  TDC_CHECK_MSG(s.num_ops() == static_cast<std::int64_t>(spec.layers.size()),
                "expected one op per model layer");
  std::vector<OpInfo> out(static_cast<std::size_t>(s.num_ops()));
  for (std::int64_t i = 0; i < s.num_ops(); ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const tdc::LayerSpec& l = spec.layers[ui];
    TDC_CHECK_MSG(s.op_name(i) == l.name, "op order differs from the model");
    OpInfo& info = out[ui];
    if (const auto* conv = dynamic_cast<const tdc::ConvPlan*>(&s.op(i))) {
      const auto d = dec_for.find(ui);
      const bool decomposed = conv->decomposed();
      info.flops = decomposed && d != dec_for.end()
                       ? tdc::tucker_flops(l.conv, d->second->ranks)
                       : l.conv.flops();
      if (conv->quantized()) {
        info.cls = OpClass::kConvS8;
      } else if (decomposed) {
        info.cls = OpClass::kConvTuckerF32;
      } else if (conv->algo() == tdc::ConvAlgo::kIm2col) {
        info.cls = OpClass::kConvIm2colF32;
      } else if (conv->algo() == tdc::ConvAlgo::kWinograd) {
        info.cls = OpClass::kConvWinogradF32;
      } else {
        info.cls = OpClass::kOther;
      }
      continue;
    }
    double floats = static_cast<double>(s.op(i).output_shape().floats());
    for (std::int64_t j = 0; j < s.op(i).num_inputs(); ++j) {
      floats += static_cast<double>(s.op(i).input_shape(j).floats());
    }
    switch (l.kind) {
      case tdc::LayerKind::kPool:
      case tdc::LayerKind::kGlobalPool:
        info.cls = OpClass::kPool;
        break;
      case tdc::LayerKind::kFullyConnected:
        info.cls = OpClass::kFc;
        break;
      case tdc::LayerKind::kElementwise:
        info.bytes = floats * sizeof(float);
        if (l.elt == tdc::EltOp::kBatchNorm) {
          info.cls = OpClass::kBatchNorm;
        } else if (l.elt == tdc::EltOp::kRelu) {
          info.cls = OpClass::kRelu;
        } else if (l.elt == tdc::EltOp::kAdd || l.elt == tdc::EltOp::kAddRelu) {
          info.cls = OpClass::kAdd;
        }
        break;
      default:
        break;
    }
  }
  return out;
}

// Walks the compiled session op by op in DAG order through the public
// OpPlan interface, timing each op. Op outputs are placed by the same
// liveness rule the session uses (a block lives from its producer to its
// last consumer; first fit over the live blocks), rebuilt here from
// op_inputs(), so the replay touches a working set of the session's size.
class Replayer {
 public:
  explicit Replayer(const tdc::InferenceSession& s) : s_(s) {
    const std::int64_t n = s.num_ops();
    std::vector<std::int64_t> last_use(static_cast<std::size_t>(n));
    std::int64_t ws = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      TDC_CHECK_MSG(s.op_inputs(i).size() <= kMaxInputs,
                    "replay supports at most 16 inputs per op");
      last_use[static_cast<std::size_t>(i)] = i;
      for (const std::int64_t j : s.op_inputs(i)) {
        if (j != tdc::InferenceSession::kModelInput) {
          last_use[static_cast<std::size_t>(j)] = i;
        }
      }
      ws = std::max(ws, s.op(i).workspace_bytes());
    }
    struct Block {
      std::int64_t offset, floats, last_use;
    };
    std::vector<Block> live;  // sorted by offset
    std::int64_t size = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      std::erase_if(live, [&](const Block& b) { return b.last_use < i; });
      const std::int64_t floats = s.op(i).output_shape().floats();
      std::int64_t offset = 0;
      for (const Block& b : live) {
        if (offset + floats <= b.offset) {
          break;
        }
        offset = std::max(offset, b.offset + b.floats);
      }
      const Block placed{offset, floats, last_use[static_cast<std::size_t>(i)]};
      live.insert(std::upper_bound(live.begin(), live.end(), placed,
                                   [](const Block& a, const Block& b) {
                                     return a.offset < b.offset;
                                   }),
                  placed);
      offsets_.push_back(offset);
      size = std::max(size, offset + floats);
    }
    buf_.assign(static_cast<std::size_t>(size), 0.0f);
    ws_.assign(static_cast<std::size_t>(ws / 4 + 1), 0.0f);
  }

  // One request: per-op seconds into `op_s`; returns the output of the
  // last op.
  const float* run(const Tensor& x, std::vector<double>* op_s,
                   std::vector<Clock::time_point>* stamps) {
    const std::int64_t n = s_.num_ops();
    op_s->resize(static_cast<std::size_t>(n));
    stamps->resize(static_cast<std::size_t>(n) + 1);
    const float* ptrs[kMaxInputs];
    (*stamps)[0] = Clock::now();
    for (std::int64_t i = 0; i < n; ++i) {
      const auto ins = s_.op_inputs(i);
      for (std::size_t k = 0; k < ins.size(); ++k) {
        ptrs[k] = ins[k] == tdc::InferenceSession::kModelInput
                      ? x.raw()
                      : block(ins[k]);
      }
      s_.op(i).run_inputs(std::span<const float* const>(ptrs, ins.size()),
                          block(i), ws_);
      (*stamps)[static_cast<std::size_t>(i) + 1] = Clock::now();
      (*op_s)[static_cast<std::size_t>(i)] =
          seconds_between((*stamps)[static_cast<std::size_t>(i)],
                          (*stamps)[static_cast<std::size_t>(i) + 1]);
    }
    return buf_.data() + offsets_.back();
  }

  static constexpr std::size_t kMaxInputs = 16;

 private:
  const tdc::InferenceSession& s_;
  float* block(std::int64_t op) {
    return buf_.data() + offsets_[static_cast<std::size_t>(op)];
  }

  std::vector<std::int64_t> offsets_;
  std::vector<float> buf_;
  std::vector<float> ws_;
};

struct ReplayResult {
  std::vector<double> op_median_s;  // per op, median over replays
  double total_median_s = 0.0;      // median over replays of the walk
  bool matches_reference = true;
};

ReplayResult replay(const tdc::InferenceSession& s,
                    const std::vector<Tensor>& inputs,
                    const std::vector<Tensor>& refs, int reps,
                    Tracer* tracer, std::int64_t first_request,
                    const char* label) {
  Replayer r(s);
  std::vector<std::vector<double>> per_op(
      static_cast<std::size_t>(s.num_ops()));
  std::vector<double> totals;
  std::vector<double> op_s;
  std::vector<Clock::time_point> stamps;
  ReplayResult res;
  const auto out_floats =
      static_cast<std::size_t>(s.output_shape().floats());
  for (int k = 0; k < reps; ++k) {
    const std::size_t idx = static_cast<std::size_t>(k) % inputs.size();
    const float* y = r.run(inputs[idx], &op_s, &stamps);
    res.matches_reference =
        res.matches_reference &&
        std::memcmp(y, refs[idx].raw(), out_floats * sizeof(float)) == 0;
    totals.push_back(seconds_between(stamps.front(), stamps.back()));
    for (std::size_t i = 0; i < op_s.size(); ++i) {
      per_op[i].push_back(op_s[i]);
    }
    if (tracer != nullptr) {
      const std::int64_t req = first_request + k;
      const std::int64_t root =
          tracer->add(label, stamps.front(), stamps.back(), -1, req, 1);
      for (std::size_t i = 0; i < op_s.size(); ++i) {
        tracer->add(s.op_name(static_cast<std::int64_t>(i)), stamps[i],
                    stamps[i + 1], root, req, 1);
      }
    }
  }
  for (const auto& v : per_op) {
    res.op_median_s.push_back(median(v));
  }
  res.total_median_s = median(totals);
  return res;
}

// ----------------------------------------------------------------- args --

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
      if (!have_seed) {
        return false;
      }
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a->seconds > 0.0)) {
        return false;
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") {
        return false;
      }
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && argc % 2 == 1;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// ------------------------------------------------------------------ run --

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Workload& w, const Args& args) {
  // Thread configuration first: nothing may resolve the runtime's defaults.
  tdc::set_num_threads(w.num_threads);
  tdc::set_arena_config(
      tdc::ArenaConfig{.inter_op = 0, .intra_op = w.intra_op});
  const int width = tdc::arena_config().intra_op;

  const auto origin = Clock::now();
  Tracer tracer(origin);
  const Model m;
  std::printf("workload %s  seed %llu  seconds %.1f  trace %d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("threads: num_threads %d, intra_op %d, hardware %u\n",
              tdc::num_threads(), width, std::thread::hardware_concurrency());

  const auto warm0 = Clock::now();
  warm_up_host(2.0);
  tracer.add("host.warm_up", warm0, Clock::now());
  const double spin_before = spin_ms();

  // --- set-up: repeated cold builds, median ------------------------------
  // The codesign's tiling memo is process-wide and has no reset, so only
  // the first build pays its full cost; core.codesign_s reports that one.
  std::unique_ptr<Build> b;
  std::vector<double> setup_s;
  std::vector<double> phase_s[4];
  double codesign_first_s = 0.0;
  for (int k = 0; k < w.setup_builds; ++k) {
    b.reset();
    b = cold_build(w, m);
    const std::int64_t root =
        tracer.add("setup.build", b->t[0], b->t[4], -1, k);
    for (int p = 0; p < 4; ++p) {
      phase_s[p].push_back(b->phase_s(p));
      if (b->t[p + 1] > b->t[p]) {
        tracer.add(kPhaseNames[p], b->t[p], b->t[p + 1], root, k);
      }
    }
    setup_s.push_back(b->total_s());
    if (k == 0) {
      codesign_first_s = b->phase_s(1);
    }
    std::printf("setup build %d: %.3f s (host cal %.3f, codesign %.3f, "
                "calibrate %.3f, compile %.3f)\n",
                k, b->total_s(), b->phase_s(0), b->phase_s(1), b->phase_s(2),
                b->phase_s(3));
  }
  const tdc::HostCalibration cal = tdc::host_calibration();
  const tdc::PlanCache::Stats cache_after_setup =
      tdc::PlanCache::instance().stats();

  // The solo session every served output must equal bit for bit: the
  // workload's own session, or one compiled with the server's options.
  std::optional<tdc::InferenceSession> solo_holder;
  if (w.server) {
    solo_holder.emplace(tdc::InferenceSession::compile(
        m.device, m.spec, m.weights, b->codesign.layers, b->session_options));
  }
  const tdc::InferenceSession& solo = w.server ? *solo_holder : *b->session;

  tdc::Rng rng(args.seed);
  const tdc::OpShape in = solo.input_shape();
  const tdc::OpShape out = solo.output_shape();
  std::vector<Tensor> inputs;
  std::vector<Tensor> refs;
  std::vector<float> solo_ws(
      static_cast<std::size_t>(solo.workspace_bytes() / 4));
  for (int i = 0; i < kInputPool; ++i) {
    inputs.push_back(Tensor::random_uniform({in.c, in.h, in.w}, rng));
    refs.emplace_back(std::vector<std::int64_t>{out.c, out.h, out.w});
    solo.run(inputs.back(), &refs.back(), solo_ws);
  }

  // --- the served path ----------------------------------------------------
  std::vector<std::vector<float>> client_ws;
  ServeFn serve;
  if (w.server) {
    tdc::InferenceServer& server = *b->server;
    serve = [&server](const Tensor& x, Tensor* y, int) { server.infer(x, y); };
  } else {
    client_ws.emplace_back(solo_ws.size());
    serve = [&solo, &client_ws](const Tensor& x, Tensor* y, int c) {
      solo.run(x, y, client_ws[static_cast<std::size_t>(c)]);
    };
  }
  // Warm-up: every client serves the whole input pool once, concurrently,
  // before the window opens.
  on_threads(w.clients, [&](int c) {
    Tensor y({out.c, out.h, out.w});
    for (const Tensor& x : inputs) {
      serve(x, &y, c);
    }
  });

  const tdc::ParallelStats par0 = tdc::parallel_stats();
  const tdc::ServerStats srv0 = w.server ? b->server->stats()
                                         : tdc::ServerStats{};
  const auto win0 = Clock::now();
  const LoadResult load =
      w.open_rate_ips > 0.0
          ? run_open_loop(serve, inputs, refs, out, w.clients,
                          w.open_rate_ips, args.seconds, args.seed, tracer)
          : run_closed_loop(serve, inputs, refs, out, w.clients,
                            args.seconds, tracer);
  const auto win1 = Clock::now();
  const tdc::ParallelStats par1 = tdc::parallel_stats();
  const tdc::ServerStats srv1 = w.server ? b->server->stats()
                                         : tdc::ServerStats{};
  const double rss_mib = peak_rss_mib();

  std::vector<double> lat_ms;
  std::vector<double> late_ms;
  std::int64_t succeeded = 0;
  for (const Sample& s : load.samples) {
    if (s.ok) {
      lat_ms.push_back(s.latency_s * 1e3);
      ++succeeded;
    }
    late_ms.push_back(s.late_s * 1e3);
  }
  const double p50_ms = median(lat_ms);
  // The tail percentile is a per-workload constant, so a faster program
  // (more samples in a closed loop) does not move it to another percentile.
  const Tail tail = tail_at(lat_ms, w.tail_pct);
  const double ips = load.window_s > 0.0
                         ? static_cast<double>(succeeded) / load.window_s
                         : 0.0;

  // --- independent agreement, once per run --------------------------------
  // fp32 references against a differently configured session (staged Tucker
  // or pinned im2col, compiled without the plan cache); int8 references
  // against the fp32 Tucker model within the stated quantization bound.
  tdc::SessionOptions alt;
  alt.use_plan_cache = false;
  double agree_bound = 0.0;
  const char* agree_what = "";
  if (w.int8) {
    agree_bound = 0.05;
    agree_what = "int8 vs fp32 Tucker (fused)";
  } else if (w.tucker) {
    alt.tucker_exec = tdc::TuckerExec::kStaged;
    agree_bound = 1e-4;
    agree_what = "fused vs staged Tucker (fp32)";
  } else {
    alt.dense_algo = tdc::ConvAlgo::kIm2col;
    agree_bound = 1e-4;
    agree_what = "auto (Winograd) vs pinned im2col (fp32)";
  }
  double agree_err = 0.0;
  {
    const tdc::InferenceSession other = tdc::InferenceSession::compile(
        m.device, m.spec, m.weights, b->codesign.layers, alt);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      agree_err = std::max(agree_err, rel_l2(refs[i], other.run(inputs[i])));
    }
  }
  const bool agree_ok = agree_err <= agree_bound;
  const double spin_after = spin_ms();

  std::printf("requests: attempted %lld, succeeded %lld, failed %lld "
              "(output mismatches %lld)\n",
              static_cast<long long>(load.attempted),
              static_cast<long long>(succeeded),
              static_cast<long long>(load.failed),
              static_cast<long long>(load.mismatched));
  std::printf("agreement: %s: rel L2 %.3g (bound %.3g) %s\n", agree_what,
              agree_err, agree_bound, agree_ok ? "ok" : "FAILED");
  std::printf("latency_tail_ms is p%g of %zu samples (%zu beyond it)%s\n",
              tail.percentile, tail.samples, tail.beyond,
              tail.beyond < 10 ? "; FEWER THAN 10 BEYOND" : "");
  for (const double pct : {80.0, 90.0, 95.0, 99.0}) {
    const Tail t = tail_at(lat_ms, pct);
    std::printf("  p%g %.3f ms (%zu beyond)\n", pct, t.value, t.beyond);
  }
  std::printf("host: spin %.2f ms before, %.2f ms after; calibration "
              "%.1f GFLOP/s, %.1f GB/s, %.1f int8 GOP/s\n",
              spin_before, spin_after, cal.gflops, cal.gbs, cal.s8_gops);

  // Plan-selection counts: they must repeat exactly across runs, so a flip
  // shows here rather than as noise. Printed in both modes.
  std::vector<Metric> counts;
  {
    int tucker = 0;
    int winograd = 0;
    int s8 = 0;
    for (std::int64_t i = 0; i < solo.num_ops(); ++i) {
      if (const auto* conv = dynamic_cast<const tdc::ConvPlan*>(&solo.op(i))) {
        tucker += conv->decomposed() ? 1 : 0;
        winograd +=
            !conv->decomposed() && conv->algo() == tdc::ConvAlgo::kWinograd;
        s8 += conv->quantized() ? 1 : 0;
      }
    }
    counts = {
        {"exec.ops", static_cast<double>(solo.num_ops()), "count"},
        {"exec.convs_tucker", static_cast<double>(tucker), "count"},
        {"exec.convs_winograd", static_cast<double>(winograd), "count"},
        {"exec.convs_s8", static_cast<double>(s8), "count"},
        {"exec.plan_cache_entries",
         static_cast<double>(cache_after_setup.entries), "count"}};
  }
  std::printf("plan counts:");
  for (const Metric& c : counts) {
    std::printf(" %s=%.0f", c.name.c_str(), c.value);
  }
  std::printf("\n");

  std::vector<Metric> rep;
  auto report = [&rep](std::string name, double value, std::string unit) {
    rep.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  if (!args.trace) {
    report("setup_s", median(setup_s), "s");
    report("latency_p50_ms", p50_ms, "ms");
    report("latency_tail_ms", tail.value, "ms");
    report("throughput_ips", ips, "1/s");
    report("peak_rss_mib", rss_mib, "MiB");
  } else {
    // --- per-layer: set-up phases ------------------------------------------
    report("exec.host_calibration_s", median(phase_s[0]), "s");
    report("core.codesign_s", codesign_first_s, "s");
    double decompose_s = 0.0;
    if (w.tucker) {
      std::size_t k = 0;
      for (std::size_t i = 0; i < m.spec.layers.size(); ++i) {
        const tdc::LayerSpec& l = m.spec.layers[i];
        if (l.kind != tdc::LayerKind::kConv ||
            (l.conv.r == 1 && l.conv.s == 1)) {
          continue;
        }
        const tdc::LayerDecision& d = b->codesign.layers[k++];
        if (d.decomposed) {
          const auto t0 = Clock::now();
          const tdc::TuckerFactors f =
              tdc::tucker_decompose(m.weights[i].conv_kernel, d.ranks);
          const auto t1 = Clock::now();
          decompose_s += seconds_between(t0, t1);
          tracer.add("tucker.decompose " + l.name, t0, t1);
          (void)f;
        }
      }
    }
    report("tucker.decompose_s", decompose_s, "s");
    report("exec.quantize_calibrate_s", median(phase_s[2]), "s");
    report("exec.compile_cold_s", median(phase_s[3]), "s");
    double warm_s = 0.0;
    {
      const auto t0 = Clock::now();
      if (w.server) {
        const tdc::InferenceServer again = tdc::InferenceServer::compile(
            m.device, m.spec, m.weights, b->codesign.layers,
            server_options(w, b->session_options));
        warm_s = seconds_between(t0, Clock::now());
      } else {
        const tdc::InferenceSession again = tdc::InferenceSession::compile(
            m.device, m.spec, m.weights, b->codesign.layers,
            b->session_options);
        warm_s = seconds_between(t0, Clock::now());
      }
      tracer.add("exec.compile_warm", t0, Clock::now());
    }
    report("exec.compile_warm_s", warm_s, "s");
    const double lookups = static_cast<double>(b->compile_cache.hits +
                                               b->compile_cache.misses);
    report("exec.plan_cache_hit_share",
           lookups > 0 ? static_cast<double>(b->compile_cache.hits) / lookups
                       : 0.0,
           "ratio");

    // --- per-layer: one request, op by op ----------------------------------
    const std::vector<OpInfo> info = classify_ops(solo, m.spec,
                                                  b->codesign.layers);
    constexpr int kReplays = 24;
    const ReplayResult rw =
        replay(solo, inputs, refs, kReplays, &tracer, 1'000'000, "replay");
    // Untraced run p50 of the same session on the same inputs.
    std::vector<double> run_ms;
    std::vector<double> infer_ms;
    {
      Tensor y({out.c, out.h, out.w});
      for (int k = 0; k < kReplays; ++k) {
        const Tensor& x = inputs[static_cast<std::size_t>(k) % inputs.size()];
        auto t0 = Clock::now();
        solo.run(x, &y, solo_ws);
        run_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        if (w.server) {
          t0 = Clock::now();
          b->server->infer(x, &y);
          infer_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        }
      }
    }
    const double run_p50_ms = median(run_ms);
    double class_ms[kNumClasses] = {};
    double class_flops[kNumClasses] = {};
    double class_bytes[kNumClasses] = {};
    int class_ops[kNumClasses] = {};
    double ops_sum_ms = 0.0;
    for (std::size_t i = 0; i < info.size(); ++i) {
      const int c = static_cast<int>(info[i].cls);
      class_ms[c] += rw.op_median_s[i] * 1e3;
      class_flops[c] += info[i].flops;
      class_bytes[c] += info[i].bytes;
      ++class_ops[c];
      ops_sum_ms += rw.op_median_s[i] * 1e3;
    }
    auto rate = [&](OpClass c) {
      const int i = static_cast<int>(c);
      return class_ms[i] > 0.0 ? class_flops[i] / (class_ms[i] * 1e-3) / 1e9
                               : 0.0;
    };
    const int ct = static_cast<int>(OpClass::kConvTuckerF32);
    report("exec.conv_tucker_f32_ms", class_ms[ct], "ms");
    report("exec.conv_tucker_f32_gflops", rate(OpClass::kConvTuckerF32),
           "GFLOP/s");
    report("exec.conv_s8_ms", class_ms[static_cast<int>(OpClass::kConvS8)],
           "ms");
    report("exec.conv_s8_gops", rate(OpClass::kConvS8), "GOP/s");
    report("exec.conv_im2col_f32_ms",
           class_ms[static_cast<int>(OpClass::kConvIm2colF32)], "ms");
    report("exec.conv_im2col_f32_gflops", rate(OpClass::kConvIm2colF32),
           "GFLOP/s");
    report("exec.conv_winograd_f32_ms",
           class_ms[static_cast<int>(OpClass::kConvWinogradF32)], "ms");
    const double bn = class_ms[static_cast<int>(OpClass::kBatchNorm)];
    const double relu = class_ms[static_cast<int>(OpClass::kRelu)];
    const double add = class_ms[static_cast<int>(OpClass::kAdd)];
    const double elt_bytes =
        class_bytes[static_cast<int>(OpClass::kBatchNorm)] +
        class_bytes[static_cast<int>(OpClass::kRelu)] +
        class_bytes[static_cast<int>(OpClass::kAdd)];
    report("exec.bn_ms", bn, "ms");
    report("exec.relu_ms", relu, "ms");
    report("exec.add_ms", add, "ms");
    report("exec.eltwise_share",
           ops_sum_ms > 0 ? (bn + relu + add) / ops_sum_ms : 0.0, "ratio");
    report("exec.eltwise_gbs",
           bn + relu + add > 0 ? elt_bytes / ((bn + relu + add) * 1e-3) / 1e9
                               : 0.0,
           "GB/s");
    report("exec.pool_ms", class_ms[static_cast<int>(OpClass::kPool)], "ms");
    report("exec.fc_ms", class_ms[static_cast<int>(OpClass::kFc)], "ms");
    report("exec.walk_overhead_ms", run_p50_ms - ops_sum_ms, "ms");
    report("trace.overhead_ms", rw.total_median_s * 1e3 - run_p50_ms, "ms");
    report("exec.arena_mib",
           static_cast<double>(solo.arena_floats()) * 4.0 / 1048576.0, "MiB");
    report("exec.workspace_mib",
           static_cast<double>(solo.workspace_bytes()) / 1048576.0, "MiB");

    for (const Metric& c : counts) {
      report(c.name, c.value, c.unit);
    }

    // --- parallel ----------------------------------------------------------
    double speedup = 1.0;
    if (width > 1) {
      tdc::set_arena_config(tdc::ArenaConfig{.inter_op = 0, .intra_op = 1});
      const ReplayResult r1 = replay(solo, inputs, refs, kReplays / 2, nullptr,
                                     0, "replay");
      tdc::set_arena_config(
          tdc::ArenaConfig{.inter_op = 0, .intra_op = w.intra_op});
      speedup = r1.total_median_s / rw.total_median_s;
    }
    report("parallel.intra_op_speedup", speedup, "ratio");
    const double done = std::max<double>(1.0, static_cast<double>(succeeded));
    report("parallel.pool_regions_per_req",
           static_cast<double>(par1.pool_regions - par0.pool_regions) / done,
           "count");
    report("parallel.serial_fallbacks_per_req",
           static_cast<double>(par1.serial_fallbacks - par0.serial_fallbacks) /
               done,
           "count");

    // --- serving -----------------------------------------------------------
    const double images =
        static_cast<double>(srv1.coalesced_images - srv0.coalesced_images);
    const double solo_runs =
        static_cast<double>(srv1.solo_runs - srv0.solo_runs);
    const double dispatches =
        static_cast<double>(srv1.batches - srv0.batches) + solo_runs;
    report("serving.overhead_ms",
           w.server ? median(infer_ms) - run_p50_ms : 0.0, "ms");
    report("serving.coalesced_share",
           images + solo_runs > 0 ? images / (images + solo_runs) : 0.0,
           "ratio");
    report("serving.mean_batch",
           dispatches > 0 ? (images + solo_runs) / dispatches : 0.0, "count");
    report("serving.peak_pending", static_cast<double>(srv1.peak_pending),
           "count");
    report("serving.rejected",
           static_cast<double>(srv1.rejected_overload - srv0.rejected_overload),
           "count");
    report("serving.expired",
           static_cast<double>(srv1.expired_in_queue - srv0.expired_in_queue),
           "count");

    // --- attribution ---------------------------------------------------------
    report("loadgen.late_p50_ms", w.open_rate_ips > 0 ? median(late_ms) : 0.0,
           "ms");
    report("loadgen.late_max_ms",
           w.open_rate_ips > 0 && !late_ms.empty()
               ? *std::max_element(late_ms.begin(), late_ms.end())
               : 0.0,
           "ms");
    report("host.spin_ms", 0.5 * (spin_before + spin_after), "ms");

    // --- spans of the served window, then the trace file --------------------
    tracer.add("window", win0, win1);
    std::vector<Span> req_spans;
    for (std::size_t k = 0; k < load.samples.size(); ++k) {
      const Sample& s = load.samples[k];
      req_spans.push_back(Span{w.server ? "serving.infer" : "session.run",
                               s.start_us, s.end_us, -1,
                               static_cast<std::int64_t>(k), 2 + s.client});
    }
    tracer.append(req_spans);
    const std::string trace_path = args.out_dir + "/" + w.name + "-seed" +
                                   std::to_string(args.seed) + ".trace.json";
    const bool wrote = tracer.write_chrome_json(trace_path);
    std::printf("trace: %zu spans -> %s%s\n", tracer.size(),
                trace_path.c_str(), wrote ? "" : " (write FAILED)");

    std::printf("\nper-layer table: one request replayed op by op at intra-op "
                "width %d (median of %d replays; bytes computed from tensor "
                "sizes)\n",
                width, kReplays);
    std::printf("%-18s %4s %10s %7s %10s\n", "op class", "ops", "ms",
                "share", "rate");
    for (int c = 0; c < kNumClasses; ++c) {
      if (class_ops[c] == 0) {
        continue;
      }
      double r = 0.0;
      const char* unit = "";
      if (class_flops[c] > 0) {
        r = class_flops[c] / (class_ms[c] * 1e-3) / 1e9;
        unit = c == static_cast<int>(OpClass::kConvS8) ? "GOP/s" : "GFLOP/s";
      } else if (class_bytes[c] > 0) {
        r = class_bytes[c] / (class_ms[c] * 1e-3) / 1e9;
        unit = "GB/s";
      }
      std::printf("%-18s %4d %10.3f %6.1f%%", kClassNames[c], class_ops[c],
                  class_ms[c], 100.0 * class_ms[c] / ops_sum_ms);
      if (r > 0.0) {
        std::printf(" %10.2f %s", r, unit);
      }
      std::printf("\n");
    }
    std::printf("%-18s %4zu %10.3f (untraced session.run p50 %.3f ms: "
                "%+.1f%%; window latency_p50 %.3f ms: %+.1f%%)\n",
                "sum of ops", info.size(), ops_sum_ms, run_p50_ms,
                100.0 * (ops_sum_ms - run_p50_ms) / run_p50_ms, p50_ms,
                100.0 * (ops_sum_ms - p50_ms) / p50_ms);
    if (!rw.matches_reference) {
      std::printf("replay output differs from the session's\n");
    }
    if (!wrote || !rw.matches_reference) {
      print_json(false, load.attempted, load.failed, rep);
      return 1;
    }
  }

  std::printf("\n");
  for (const Metric& mt : rep) {
    std::printf("%-34s %14.6f %s\n", mt.name.c_str(), mt.value,
                mt.unit.c_str());
  }
  const bool correct = load.failed == 0 && agree_ok && succeeded > 0;
  print_json(correct, load.attempted, load.failed, rep);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's dynamic one, which otherwise
  // moves with the order in which threads free large blocks and makes the
  // peak RSS of identical runs differ by tens of MiB. The serving path does
  // not allocate, so this changes no timed work.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tdc_perfbench --workload NAME --seed N "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR]\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    return run(*w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
