#include "exec/autotune.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "exec/host_cost.h"
#include "exec/microbench.h"
#include "exec/plan_cache.h"
#include "exec/quantize.h"

namespace tdc {

namespace {

using Clock = std::chrono::steady_clock;

// Candidates the host model prices this far off its leader are not worth
// compiling and timing — on ResNet shapes this gates the CPU FFT path and
// the TDC emulator out before a single buffer is allocated.
constexpr double kEstimateGate = 4.0;
// At most this many candidates are timed per shape.
constexpr int kMaxTimedCandidates = 3;

struct TunerState {
  std::mutex mu;
  std::map<std::string, ConvAlgo> winners;  // ordered → stable snapshots
  // Measured fp32-vs-int8 duels (resolve_precision), keyed like `winners`
  // but never persisted: precision winners re-measure per process.
  std::map<std::string, Precision> precisions;
  AutotuneStats stats;
  bool env_checked = false;
  bool save_warned = false;
  std::string cache_path;  // empty: persistence off
  // Bumped by autotune_clear(), the only operation after which an
  // already-resolved shape may resolve to a different winner (loads merge
  // with in-memory priority and inserts never overwrite). Part of
  // cache_key(), so PlanCache entries from before a clear are never served
  // to compiles after it.
  std::int64_t generation = 0;
};

TunerState& state() {
  static TunerState s;
  return s;
}

void append_shape_token(std::string* out, const ConvShape& s) {
  for (const std::int64_t v : {s.c, s.n, s.h, s.w, s.r, s.s, s.pad_h, s.pad_w,
                               s.stride_h, s.stride_w, s.batch}) {
    *out += std::to_string(v);
    *out += ',';
  }
}

std::string entry_key(const ConvShape& shape,
                      const std::vector<ConvAlgo>& candidates, int threads) {
  std::string key;
  append_shape_token(&key, shape);
  key += '|';
  for (const ConvAlgo algo : candidates) {
    key += std::to_string(static_cast<int>(algo));
    key += ',';
  }
  key += "|t";
  key += std::to_string(threads);
  return key;
}

bool algo_from_name(const std::string& name, ConvAlgo* out) {
  for (const ConvAlgo algo :
       {ConvAlgo::kReference, ConvAlgo::kIm2col, ConvAlgo::kWinograd,
        ConvAlgo::kFft, ConvAlgo::kTdcCore}) {
    if (name == conv_algo_name(algo)) {
      *out = algo;
      return true;
    }
  }
  return false;
}

// Pulls the next {"key": "...", "algo": "..."} pair out of the cache file
// contents starting at *pos. Tolerant by construction: anything that does
// not parse is skipped, so a stale or truncated cache degrades to re-tuning
// instead of failing the compile.
bool next_entry(const std::string& text, std::size_t* pos, std::string* key,
                std::string* algo) {
  auto quoted_after = [&](const char* tag, std::size_t from,
                          std::string* out, std::size_t* end) {
    const std::size_t at = text.find(tag, from);
    if (at == std::string::npos) {
      return false;
    }
    const std::size_t open = text.find('"', at + std::char_traits<char>::length(tag));
    if (open == std::string::npos) {
      return false;
    }
    const std::size_t close = text.find('"', open + 1);
    if (close == std::string::npos) {
      return false;
    }
    *out = text.substr(open + 1, close - open - 1);
    *end = close + 1;
    return true;
  };
  std::size_t after_key = 0;
  if (!quoted_after("\"key\":", *pos, key, &after_key)) {
    return false;
  }
  std::size_t after_algo = 0;
  if (!quoted_after("\"algo\":", after_key, algo, &after_algo)) {
    return false;
  }
  *pos = after_algo;
  return true;
}

// Cache-file format (version 2): a version header plus a checksum over the
// entry content, so a torn write, a flipped byte or a file from a different
// format revision is *detected* instead of silently half-loaded:
//
//   {
//     "version": 2,
//     "checksum": "<16 hex digits: FNV-1a over every (key, algo) pair>",
//     "entries": [ {"key": "...", "algo": "..."}, ... ]
//   }
//
// Writes go through a temp file in the same directory followed by an atomic
// rename, so a crash mid-save (or a concurrent reader) can only ever observe
// the previous complete file — never a torn one.

constexpr long long kCacheFormatVersion = 2;

std::uint64_t entries_checksum(
    const std::map<std::string, ConvAlgo>& winners) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto fold = [&h](const char* s) {
    for (; *s != '\0'; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 1099511628211ULL;
    }
    h ^= 0xffU;  // separator: ("ab","c") must not collide with ("a","bc")
    h *= 1099511628211ULL;
  };
  for (const auto& [key, algo] : winners) {
    fold(key.c_str());
    fold(conv_algo_name(algo));
  }
  return h;
}

// Pulls the integer after "tag": out of `text`; -1 when absent.
long long int_field(const std::string& text, const char* tag) {
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) {
    return -1;
  }
  return std::strtoll(text.c_str() + at + std::char_traits<char>::length(tag),
                      nullptr, 10);
}

// Callers hold state().mu.
bool save_locked(const std::string& path) {
  // Serialize fully in memory first: the checksum covers exactly what is
  // written, and the write happens in one pass to the temp file.
  std::string body = "{\n  \"version\": " +
                     std::to_string(kCacheFormatVersion) + ",\n";
  {
    char sum[24];
    std::snprintf(sum, sizeof(sum), "%016llx",
                  static_cast<unsigned long long>(
                      entries_checksum(state().winners)));
    body += "  \"checksum\": \"";
    body += sum;
    body += "\",\n  \"entries\": [";
  }
  bool first = true;
  for (const auto& [key, algo] : state().winners) {
    body += first ? "\n" : ",\n";
    body += "    {\"key\": \"" + key + "\", \"algo\": \"" +
            conv_algo_name(algo) + "\"}";
    first = false;
  }
  body += "\n  ]\n}\n";

  if (fault_injected("autotune.corrupt_save")) {
    // Torn-write simulation: publish only the front half. The checksum on
    // the next load is what must catch this.
    body.resize(body.size() / 2);
  }

  // Same-directory temp file (rename is only atomic within one filesystem);
  // the pid keeps concurrent *processes* saving to the same cache apart.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

enum class CacheLoad { kOk, kMissing, kWrongVersion, kCorrupt };

// Callers hold state().mu. Parses into a staging map and verifies the
// checksum before anything merges into the winner table, so a corrupt file
// contributes nothing at all.
CacheLoad load_locked(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return CacheLoad::kMissing;
  }
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);

  if (int_field(text, "\"version\":") != kCacheFormatVersion) {
    return CacheLoad::kWrongVersion;
  }
  std::uint64_t stated = 0;
  {
    const std::size_t at = text.find("\"checksum\":");
    const std::size_t open =
        at == std::string::npos ? std::string::npos : text.find('"', at + 11);
    if (open == std::string::npos) {
      return CacheLoad::kCorrupt;
    }
    stated = std::strtoull(text.c_str() + open + 1, nullptr, 16);
  }
  std::map<std::string, ConvAlgo> staged;
  std::size_t pos = 0;
  std::string key;
  std::string name;
  while (next_entry(text, &pos, &key, &name)) {
    ConvAlgo algo = ConvAlgo::kIm2col;
    if (!algo_from_name(name, &algo)) {
      return CacheLoad::kCorrupt;  // an entry names no known algorithm
    }
    staged.emplace(key, algo);
  }
  if (entries_checksum(staged) != stated) {
    return CacheLoad::kCorrupt;
  }
  for (const auto& [k, algo] : staged) {
    state().winners.emplace(k, algo);  // first (in-memory) entry wins
  }
  return CacheLoad::kOk;
}

// Moves a failed cache file out of the way (path + ".corrupt") so the next
// save starts clean and the evidence survives for inspection; the process
// degrades to re-tuning instead of crashing or re-reading bad data forever.
void quarantine_locked(const std::string& path, const char* why) {
  const std::string dest = path + ".corrupt";
  std::remove(dest.c_str());
  const bool moved = std::rename(path.c_str(), dest.c_str()) == 0;
  std::fprintf(stderr,
               "tdc: TDC_AUTOTUNE_CACHE file '%s' %s; %s — winners will be "
               "re-tuned\n",
               path.c_str(), why,
               moved ? "quarantined to *.corrupt" : "could not be moved");
}

const char* cache_load_problem(CacheLoad r) {
  return r == CacheLoad::kWrongVersion
             ? "has an unsupported format version"
             : "failed its integrity check (torn or corrupt)";
}

// Reads TDC_AUTOTUNE_CACHE once and loads the file when present. Callers
// hold state().mu.
void ensure_cache_loaded_locked() {
  if (state().env_checked) {
    return;
  }
  state().env_checked = true;
  const char* path = std::getenv("TDC_AUTOTUNE_CACHE");
  state().cache_path = path != nullptr ? path : "";
  if (!state().cache_path.empty()) {
    const CacheLoad r = load_locked(state().cache_path);
    if (r == CacheLoad::kWrongVersion || r == CacheLoad::kCorrupt) {
      // Serving must not fail because a cache file went bad: quarantine it
      // and fall through to re-tuning.
      quarantine_locked(state().cache_path, cache_load_problem(r));
    }
    // kMissing: first run, fine.
  }
}

double time_plan(PlanRequest req) {
  // Throwaway plan over zero-filled buffers: weights do not change the
  // instruction stream of any executor, and 0·0 products raise no denormal
  // stalls, so zeros time like production traffic without touching the
  // PlanCache or any caller state.
  const ConvShape& shape = req.shape;
  const Tensor kernel({shape.c, shape.n, shape.r, shape.s});
  req.kernel = &kernel;
  const auto plan = compile_plan(req);
  const Tensor x({shape.c, shape.h, shape.w});
  Tensor y({shape.n, shape.out_h(), shape.out_w()});
  std::vector<float> ws(
      static_cast<std::size_t>(plan->workspace_bytes() / sizeof(float)));
  plan->run(x, &y, ws);  // warm-up
  double best_s = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = Clock::now();
    plan->run(x, &y, ws);
    best_s = std::min(
        best_s, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best_s;
}

}  // namespace

std::string AutotuneCostProvider::cache_key() const {
  // Thread count keys the winner table directly; the host calibration
  // steers the shortlist ranking; the generation invalidates decisions made
  // before an autotune_clear(). All three enter the provenance so a
  // re-calibrated or re-tuned process never hits a PlanCache entry whose
  // plan was chosen under superseded state.
  std::int64_t generation = 0;
  {
    TunerState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    generation = s.generation;
  }
  const HostCalibration cal = host_calibration();
  char buf[112];
  std::snprintf(buf, sizeof(buf), "autotune;gen=%lld;t=%d;g=%.6g;b=%.6g",
                static_cast<long long>(generation), num_threads(),
                cal.gflops, cal.gbs);
  return buf;
}

ConvAlgo AutotuneCostProvider::resolve(const DeviceSpec& device,
                                       const ConvShape& shape) const {
  const std::vector<ConvAlgo> candidates = dense_algo_candidates(shape);
  TunerState& s = state();
  const std::string key = entry_key(shape, candidates, num_threads());
  {
    std::lock_guard<std::mutex> lock(s.mu);
    ensure_cache_loaded_locked();
    ++s.stats.resolves;
    if (const auto it = s.winners.find(key); it != s.winners.end()) {
      ++s.stats.table_hits;
      return it->second;
    }
  }

  // Rank by the host model's estimate and keep only the candidates close
  // enough to the leader to plausibly win a measurement. Timing runs
  // outside the lock: a concurrent resolve of a memoized shape must not
  // stall behind hundreds of milliseconds of candidate runs.
  std::vector<std::pair<double, ConvAlgo>> ranked;
  for (const ConvAlgo algo : candidates) {
    ranked.emplace_back(host_conv_cost_s(algo, shape), algo);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const double leader_s = ranked.front().first;
  std::vector<ConvAlgo> shortlist;
  for (const auto& [est_s, algo] : ranked) {
    if (static_cast<int>(shortlist.size()) == kMaxTimedCandidates ||
        est_s > leader_s * kEstimateGate) {
      break;
    }
    shortlist.push_back(algo);
  }

  ConvAlgo winner = shortlist.front();
  std::int64_t timed = 0;
  if (shortlist.size() > 1) {
    double best_s = 1e300;
    PlanRequest req;
    req.shape = shape;
    req.device = device;
    for (const ConvAlgo algo : shortlist) {
      req.algo = algo;
      const double t = time_plan(req);
      ++timed;
      if (t < best_s) {  // earlier (better-estimated) candidate wins ties
        best_s = t;
        winner = algo;
      }
    }
  }

  std::lock_guard<std::mutex> lock(s.mu);
  s.stats.timed_candidates += timed;
  // On a race the first insert wins and this measurement is discarded, so
  // every caller still sees one winner per key.
  const auto [it, inserted] = s.winners.emplace(key, winner);
  s.stats.entries = static_cast<std::int64_t>(s.winners.size());
  if (inserted && !s.cache_path.empty() && !save_locked(s.cache_path) &&
      !s.save_warned) {
    std::fprintf(stderr,
                 "tdc: cannot write TDC_AUTOTUNE_CACHE file '%s'; autotune "
                 "winners will not persist\n",
                 s.cache_path.c_str());
    s.save_warned = true;
  }
  return it->second;
}

Precision AutotuneCostProvider::resolve_precision(
    const DeviceSpec& device, const ConvShape& shape) const {
  if (shape.batch != 1) {
    // Candidate timing runs single-image plans; estimate instead.
    return host_conv_cost_s8_s(shape) <
                   host_conv_cost_s(resolve(device, shape), shape)
               ? Precision::kInt8
               : Precision::kFp32;
  }
  TunerState& s = state();
  const std::string key = "prec|" + entry_key(shape, {}, num_threads());
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (const auto it = s.precisions.find(key); it != s.precisions.end()) {
      return it->second;
    }
  }
  PlanRequest req;
  req.shape = shape;
  req.device = device;
  req.algo = resolve(device, shape);
  const double fp32_s = time_plan(req);
  // Synthetic unit-scale calibration: quantization parameters change only
  // the epilogue multipliers, never the instruction stream, so unit scales
  // time like calibrated ones.
  LayerQuant unit;
  unit.quantize = true;
  req.quant = &unit;
  const double s8_s = time_plan(req);
  const Precision winner =
      s8_s < fp32_s ? Precision::kInt8 : Precision::kFp32;
  std::lock_guard<std::mutex> lock(s.mu);
  s.stats.timed_candidates += 2;
  // First insert wins on a race, like the algorithm table.
  return s.precisions.emplace(key, winner).first->second;
}

const CostProvider& autotune_cost_provider() {
  static const AutotuneCostProvider provider;
  return provider;
}

AutotuneStats autotune_stats() {
  TunerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.stats.entries = static_cast<std::int64_t>(s.winners.size());
  return s.stats;
}

void autotune_clear() {
  TunerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.winners.clear();
  s.precisions.clear();
  s.stats = AutotuneStats{};
  s.env_checked = false;
  s.save_warned = false;
  s.cache_path.clear();
  ++s.generation;
}

bool autotune_save(const std::string& path) {
  TunerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return save_locked(path);
}

bool autotune_load(const std::string& path) {
  TunerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const CacheLoad r = load_locked(path);
  if (r == CacheLoad::kWrongVersion || r == CacheLoad::kCorrupt) {
    // The explicit API reports integrity failures as a typed error (the
    // env-driven load instead quarantines and silently re-tunes, because
    // serving must survive a bad cache file). The file is quarantined
    // either way so the next save starts clean.
    quarantine_locked(path, cache_load_problem(r));
    throw Error("autotune cache '" + path + "' " + cache_load_problem(r),
                ErrorCode::kDataCorruption);
  }
  return r == CacheLoad::kOk;
}

std::vector<std::pair<std::string, ConvAlgo>> autotune_table() {
  TunerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return {s.winners.begin(), s.winners.end()};
}

}  // namespace tdc
