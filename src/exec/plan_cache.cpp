#include "exec/plan_cache.h"

#include <cstdio>
#include <utility>

#include "common/check.h"
#include "exec/cost_provider.h"
#include "exec/quantize.h"
#include "tucker/tucker.h"

namespace tdc {

namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void append_shape(std::string* key, const ConvShape& s) {
  for (const std::int64_t v : {s.c, s.n, s.h, s.w, s.r, s.s, s.pad_h, s.pad_w,
                               s.stride_h, s.stride_w, s.batch}) {
    *key += std::to_string(v);
    *key += ',';
  }
}

void append_u64(std::string* key, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  *key += buf;
}

// The device enters the key as its name plus a digest of every numeric
// field: kAuto resolution and the TDC tiling depend on the full DeviceSpec,
// so two same-named specs with different parameters must not alias.
void append_device(std::string* key, const DeviceSpec& d) {
  *key += d.name;
  *key += ',';
  std::uint64_t h = 14695981039346656037ULL;
  const double fields[] = {static_cast<double>(d.sms),
                           static_cast<double>(d.max_threads_per_sm),
                           static_cast<double>(d.max_threads_per_block),
                           static_cast<double>(d.max_blocks_per_sm),
                           static_cast<double>(d.shared_mem_per_sm),
                           static_cast<double>(d.shared_mem_per_block),
                           static_cast<double>(d.regs_per_sm),
                           static_cast<double>(d.max_regs_per_thread),
                           d.peak_flops,
                           d.mem_bandwidth,
                           d.l2_bandwidth,
                           static_cast<double>(d.l2_capacity_bytes),
                           static_cast<double>(d.warp_size),
                           d.launch_overhead_s,
                           d.saturation_streams,
                           d.warps_for_issue,
                           d.warps_to_saturate_bw,
                           d.sync_latency_s,
                           d.load_stall_s,
                           d.atomic_penalty,
                           d.model_top_fraction};
  h = fnv1a(fields, sizeof(fields), h);
  append_u64(key, h);
}

// kAuto plans embed their *resolution provenance* — which cost provider
// picked the algorithm, under which calibration constants — so a plan tuned
// for the CPU engine is never served to a simulated-GPU compile of the same
// shape (or vice versa, or across re-calibrations). A pinned algorithm
// compiles to the identical artifact under every provider, so those requests
// share one entry.
void append_provenance(std::string* key, const CostProvider* cost,
                       ConvAlgo algo) {
  if (algo == ConvAlgo::kAuto) {
    *key += (cost != nullptr ? *cost : simulated_gpu_cost_provider())
                .cache_key();
  } else {
    *key += "pinned";
  }
}

// The one key builder. Each plan kind keys on exactly the fields its
// compile reads: dense fp32 on the algorithm; Tucker fp32 on executor, core
// algorithm and band height; int8 on neither (the quantized engine is
// always im2col), but on the quant fingerprint instead of the resolution
// provenance.
std::string plan_key(const PlanRequest& req) {
  const bool int8 = req.quant != nullptr;
  std::string key = req.ranks ? "tucker" : "conv";
  key += int8 ? "8|" : "|";
  append_shape(&key, req.shape);
  key += '|';
  if (!int8) {
    if (req.ranks) {
      key += std::to_string(static_cast<int>(req.exec));
      key += ',';
      key += std::to_string(static_cast<int>(req.core_algo));
      key += ',';
      key += std::to_string(req.row_tile);
    } else {
      key += std::to_string(static_cast<int>(req.algo));
    }
    key += '|';
  }
  if (req.ranks) {
    key += std::to_string(req.ranks->d1);
    key += ',';
    key += std::to_string(req.ranks->d2);
    key += '|';
  }
  append_device(&key, req.device);
  key += '|';
  if (int8) {
    append_u64(&key, quant_fingerprint(*req.quant));
  } else if (req.ranks) {
    // Only the staged executor resolves its core algorithm; the fused
    // pipeline's core is fixed, so its provenance is always "pinned".
    append_provenance(&key, req.cost,
                      req.exec == TuckerExec::kStaged ? req.core_algo
                                                      : ConvAlgo::kIm2col);
  } else {
    append_provenance(&key, req.cost, req.algo);
  }
  key += '|';
  append_u64(&key, req.kernel_id());
  return key;
}

}  // namespace

std::uint64_t tensor_fingerprint(const Tensor& t) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::int64_t d : t.dims()) {
    h = fnv1a(&d, sizeof(d), h);
  }
  // FNV-1a folded over 8-byte blocks (cached compiles fingerprint every
  // weight tensor of a model, so byte-at-a-time hashing would dominate the
  // cache-hit path); the ragged tail goes through the byte variant.
  const auto* p = reinterpret_cast<const unsigned char*>(t.raw());
  std::size_t bytes = static_cast<std::size_t>(t.numel()) * sizeof(float);
  while (bytes >= sizeof(std::uint64_t)) {
    std::uint64_t block;
    __builtin_memcpy(&block, p, sizeof(block));
    h ^= block;
    h *= 1099511628211ULL;
    p += sizeof(block);
    bytes -= sizeof(block);
  }
  return fnv1a(p, bytes, h);
}

std::uint64_t PlanRequest::kernel_id() const {
  return kernel_fingerprint != 0 ? kernel_fingerprint
                                 : tensor_fingerprint(*kernel);
}

bool PlanRequest::matching_factors() const {
  return ranks && factors != nullptr && factors->ranks() == *ranks &&
         factors_kernel == kernel_id();
}

PlanCache& PlanCache::instance() {
  static PlanCache cache;
  return cache;
}

std::unique_ptr<ConvPlan> compile_plan(const PlanRequest& req) {
  TDC_CHECK_MSG(req.kernel != nullptr, "plan request without a kernel");
  const Tensor& kernel = *req.kernel;
  if (!req.ranks) {
    if (req.quant != nullptr) {
      return compile_quantized_conv_plan(req.shape, kernel, *req.quant);
    }
    ConvDescriptor desc;
    desc.shape = req.shape;
    desc.algo = req.algo;
    desc.device = req.device;
    desc.cost = req.cost;
    return compile_conv_plan(desc, kernel);
  }
  std::optional<TuckerFactors> decomposed;
  const TuckerFactors& factors =
      req.matching_factors()
          ? *req.factors
          : decomposed.emplace(tucker_decompose(kernel, *req.ranks));
  if (req.quant != nullptr) {
    return compile_quantized_tucker_plan(req.shape, factors, *req.quant);
  }
  TuckerDescriptor desc;
  desc.shape = req.shape;
  desc.exec = req.exec;
  desc.core_algo = req.core_algo;
  desc.row_tile = req.row_tile;
  desc.device = req.device;
  desc.cost = req.cost;
  return compile_tucker_plan(desc, factors);
}

std::shared_ptr<const ConvPlan> PlanCache::get_or_compile(
    const PlanRequest& req) {
  TDC_CHECK_MSG(req.kernel != nullptr, "plan request without a kernel");
  const std::string key = plan_key(req);
  // Single-flight compilation: the first caller of a key becomes its
  // compiler; every concurrent same-key caller waits on the in-flight entry
  // and shares the one artifact. Without this, N replicas cold-starting the
  // same model ran N duplicate Tucker decompositions (last-insert-wins) —
  // the thundering herd a serving fleet hits on deploy.
  std::shared_ptr<InFlight> flight;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      ++hits_;
      return it->second;
    }
    const auto in = inflight_.find(key);
    if (in != inflight_.end()) {
      // Join the in-flight compile. Counted as a hit once it lands: this
      // caller compiled nothing, it shared another caller's artifact.
      flight = in->second;
      lock.unlock();
      std::unique_lock<std::mutex> wait_lock(flight->mu);
      flight->cv.wait(wait_lock, [&] { return flight->done; });
      if (flight->error) {
        // The compiler faulted; surface its error here too. The in-flight
        // entry is already gone, so a retry starts a fresh compile.
        std::rethrow_exception(flight->error);
      }
      std::shared_ptr<const ConvPlan> plan = flight->plan;
      wait_lock.unlock();
      std::lock_guard<std::mutex> stats_lock(mu_);
      ++hits_;
      return plan;
    }
    ++misses_;
    flight = std::make_shared<InFlight>();
    inflight_.emplace(key, flight);
  }
  // Compile outside the lock so concurrent sessions compiling *different*
  // layers don't serialize. A throw here (including allocation failure,
  // surfaced as kResourceExhausted) inserts nothing — the cache only ever
  // holds fully-compiled plans, so a faulted compile can simply be retried.
  std::shared_ptr<const ConvPlan> plan;
  try {
    plan = map_resource_failure("plan compilation",
                                [&] { return compile_plan(req); });
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
    }
    std::lock_guard<std::mutex> flight_lock(flight->mu);
    flight->error = std::current_exception();
    flight->done = true;
    flight->cv.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    plans_.emplace(key, plan);
    inflight_.erase(key);
  }
  std::lock_guard<std::mutex> flight_lock(flight->mu);
  flight->plan = plan;
  flight->done = true;
  flight->cv.notify_all();
  return plan;
}

std::shared_ptr<const ConvPlan> PlanCache::find(const PlanRequest& req) {
  TDC_CHECK_MSG(req.kernel != nullptr, "plan request without a kernel");
  const std::string key = plan_key(req);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) {
    return nullptr;
  }
  ++hits_;
  return it->second;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_,
               static_cast<std::int64_t>(plans_.size())};
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace tdc
