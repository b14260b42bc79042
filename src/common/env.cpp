#include "common/env.h"

#include "common/annotations.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace tdc {

namespace {

std::string_view trim_ascii_space(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

std::optional<std::int64_t> parse_int_strict(std::string_view text) {
  text = trim_ascii_space(text);
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);  // from_chars rejects an explicit plus
    if (!text.empty() && text.front() == '-') {
      return std::nullopt;  // "+-3"
    }
  }
  if (text.empty()) {
    return std::nullopt;
  }
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 10);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;  // trailing garbage ("8x") or out of range
  }
  return value;
}

void env_warn_invalid(const char* name, std::string_view text) {
  // One warning per variable per process: a misconfigured fleet logs the
  // typo once at first use, then runs on the documented default.
  //
  // Reachable from the run path only through num_threads()'s once-per-
  // process resolution, and even there only when a variable is malformed —
  // the lock, the warned-set insert and the stderr write never execute in
  // steady-state serving.
  TDC_ANALYZE_ALLOW(run-path-lock);
  TDC_ANALYZE_ALLOW(run-path-alloc);
  TDC_ANALYZE_ALLOW(run-path-io);
  static std::mutex mu;
  static std::set<std::string>* warned = nullptr;
  std::lock_guard<std::mutex> lock(mu);
  if (warned == nullptr) {
    // Intentionally leaked (exit-safe); cold by the warn-once gate.
    warned = new std::set<std::string>();
  }
  // Once per misconfigured variable.
  if (!warned->insert(std::string(name)).second) {
    return;
  }
  std::fprintf(stderr,
               "tdc: ignoring malformed %s=\"%.*s\" (expected an integer); "
               "using the default\n",
               name, static_cast<int>(text.size()), text.data());
}

std::optional<std::int64_t> env_int(const char* name, std::int64_t min,
                                    std::int64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr) {
    return std::nullopt;
  }
  const std::optional<std::int64_t> v = parse_int_strict(env);
  if (!v.has_value() || *v < min || *v > max) {
    env_warn_invalid(name, env);
    return std::nullopt;
  }
  return v;
}

}  // namespace tdc
