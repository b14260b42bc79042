#!/usr/bin/env python3
"""tdc_analyze: the repo's invariant checker.

Two kinds of rules, one CLI, one corpus. The semantic rules prove
*reachability* properties on the AST and call graph; the per-file rules are
plain text patterns checked file by file:

  1. Run-path purity. Functions annotated TDC_RUN_PATH (src/common/
     annotations.h) are the serving roots — InferenceSession::run /
     run_batched, OpPlan::run*, the packed-GEMM block walk, the pool worker
     bodies. Everything reachable from a root must perform no heap
     allocation, construct no std::function, acquire no mutex, do no I/O and
     call nothing nondeterministic. AllowAllocScope regions (the structural
     warm-up escape DenyAllocGuard honors at runtime) and TDC_ANALYZE_ALLOW
     declarations are recognized structurally; cold regions (TDC_CHECK*
     failure arguments, fault_injected-guarded blocks, [[noreturn]] error
     sinks) are excluded because the runtime opens AllowAllocScope on those
     paths before they allocate.

  2. Layering. Includes must respect the tier DAG
         common -> linalg/fft/tensor -> conv/core/tucker/gpusim -> exec
                -> nn/serving/autograd/train
     so a lower tier can never grow an upward edge as the serving tier lands.

  3. Lock discipline. Every std::mutex acquisition must be RAII
     (lock_guard/scoped_lock/unique_lock/shared_lock); no lock may be held
     across a call into the thread pool (parallel_for / parallel_reduce /
     run_chunked) or across an invocation of a caller-provided callback.

  4. Per-file rules over src/ tests/ bench/: no naked new[] or malloc, no
     unseeded RNG, TDC_CHECK* instead of assert, no OpenMP, no raw threads
     outside the pool, no *_impl.h in public headers, and every mutable
     file-scope global registered in
     REGISTERED_SINGLETONS. They read each file's comment-stripped lines and
     do not depend on the frontend. A justified exception to one of the
     pattern rules takes `// tdc-analyze: allow(rule[, rule])` on the line
     or alone on the line above.

Frontends. With the libclang Python bindings available (pip `libclang`,
pinned in CI; point TDC_LIBCLANG at a specific shared object to override
discovery) the clang frontend parses every TU of the exported
compile_commands.json and takes function boundaries, qualified names and
annotate-attributes from the AST. Without them (the default dev container
ships no libclang) a fallback frontend recovers the same records from a
structural scan of the sources. Event detection inside function bodies —
allocations, locks, I/O, call edges — is ONE shared engine over the
comment-stripped body text, so the two frontends cannot disagree on
findings, only on how precisely functions are delimited; the corpus
self-test runs under whichever frontend is active and CI runs it under
both.

Usage:
  tools/analyze/tdc_analyze.py                     # analyze the repo (scopes above)
  tools/analyze/tdc_analyze.py path...             # analyze only these files/dirs
  tools/analyze/tdc_analyze.py --compile-db build  # use build/compile_commands.json
  tools/analyze/tdc_analyze.py --emit-reachable F  # write reachable-set JSON to F
  tools/analyze/tdc_analyze.py --write-run-path    # refresh tools/analyze/run_path.json
  tools/analyze/tdc_analyze.py --check-run-path    # fail if run_path.json is stale
  tools/analyze/tdc_analyze.py --self-test         # run the corpus under tools/analyze/corpus/
  tools/analyze/tdc_analyze.py --explain [RULE]    # rule rationale (see also rules.md)
  tools/analyze/tdc_analyze.py --list-roots        # print the annotated run-path roots

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CXX_SUFFIXES = {".cpp", ".h"}
RUN_PATH_JSON = Path(__file__).resolve().parent / "run_path.json"
# Default scopes: the call graph covers the library; the per-file rules also
# cover the tests and benches.
GRAPH_SCOPES = ("src",)
FILE_SCOPES = ("src", "tests", "bench")

# ------------------------------------------------------------------ policy --

# Tier DAG of src/ subdirectories. An include from tier T may only name
# headers in tiers <= T; directories sharing a tier may include each other.
TIERS = {
    "common": 0,
    "linalg": 1, "fft": 1, "tensor": 1,
    "conv": 2, "core": 2, "tucker": 2, "gpusim": 2,
    "exec": 3,
    "nn": 4, "serving": 4, "autograd": 4, "train": 4,
}

# Container/string growth & allocating members (suffix match after . or ->).
GROWTH_METHODS = {
    "push_back", "emplace_back", "resize", "reserve", "insert", "emplace",
    "append", "push", "assign", "emplace_front", "push_front",
}
# Free functions whose call allocates.
ALLOC_CALLS = {"make_unique", "make_shared", "to_string", "malloc", "calloc",
               "realloc", "free", "strdup", "aligned_alloc"}
# Types whose by-value local construction (with initializer) allocates.
ALLOC_TYPES = ("Tensor", "std::vector", "std::string", "std::unordered_map",
               "std::map", "std::deque", "std::set", "std::unordered_set",
               "std::list")
IO_CALLS = {"printf", "fprintf", "sprintf", "snprintf", "puts", "fputs",
            "fwrite", "fread", "fopen", "fclose", "fflush", "getline",
            "system", "popen"}
IO_STREAMS = {"cout", "cerr", "clog", "ofstream", "ifstream", "fstream",
              "stringstream", "ostringstream", "istringstream"}
NONDET_CALLS = {"rand", "srand", "gettimeofday", "time", "clock"}
# std:: member spellings that never resolve to project functions; calling
# them must not create a call edge (g_num_threads.store() is not
# TilingCache::store()).
STD_MEMBERS = {"store", "load", "exchange", "fetch_add", "fetch_sub",
               "fetch_or", "fetch_and", "compare_exchange_weak",
               "compare_exchange_strong", "notify_one", "notify_all",
               "wait", "wait_for", "wait_until", "test_and_set", "count",
               "size", "empty", "begin", "end", "data", "get", "reset",
               "release", "c_str", "str", "find", "at", "front", "back",
               "swap", "join", "joinable", "detach", "native_handle",
               "substr", "compare", "length", "erase", "pop_back",
               "pop_front", "value_or", "has_value", "time_since_epoch"}
NONDET_TYPES = {"random_device", "system_clock"}  # steady_clock is fine: it
# is the monotonic scheduling clock Deadline polls; it never feeds results.
LOCK_RAII = {"lock_guard", "scoped_lock", "unique_lock", "shared_lock"}
POOL_CALLS = {"parallel_for", "parallel_reduce", "run_chunked"}
# Macros/operators whose argument expressions are cold or unevaluated: the
# TDC_CHECK* message builds only on the failure path (the runtime opens
# AllowAllocScope before constructing the error), sizeof/decltype/alignof
# never evaluate, static_assert is compile-time.
COLD_MACROS = {"TDC_CHECK", "TDC_CHECK_MSG", "TDC_CHECK_INTERNAL",
               "static_assert", "sizeof", "decltype", "alignof",
               "TDC_ANALYZE_ALLOW"}
# A call whose condition gates an `if` block marks that block cold: the fault
# registry fires only in armed test processes, never at steady state.
COLD_IF_CALLS = {"fault_injected"}

CXX_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "new",
    "delete", "throw", "else", "do", "case", "default", "break", "continue",
    "goto", "using", "typedef", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "co_await", "co_return", "co_yield", "alignof",
    "decltype", "noexcept", "typeid", "requires", "template", "operator",
    "int", "void", "bool", "float", "double", "char", "auto", "constexpr",
}

# The allocation interposition layer is the one translation unit that must
# call malloc/free directly (it IS operator new/delete).
RAW_MALLOC_EXEMPT_FILES = {
    "src/common/alloc_guard.cpp",
}

# The shared pool is the one owner of library threads: it constructs and
# joins the workers every parallel region runs on.
RAW_THREAD_EXEMPT_FILES = {
    "src/common/parallel.cpp",
}

# Registered process-wide singletons: the only sanctioned mutable file-scope
# state, file -> names. Everything here is either an atomic with documented
# ordering, a mutex, state owned by one (mutex, thread) discipline, or
# thread-local state with a propagation story in the parallel runtime.
# Adding a name is a reviewed act; this table is the only list of them.
REGISTERED_SINGLETONS = {
    "src/common/parallel.cpp": {
        "t_in_parallel", "g_pool_mutex", "g_pool",
        "g_num_threads", "g_inter_op", "g_intra_op",
        "g_pool_regions", "g_inline_regions",
        "g_serial_fallbacks", "g_arena_regions", "g_peak_regions",
        "g_fallback_noted",
    },
    "src/common/deadline.cpp": {"t_deadline"},
    "src/common/fault.cpp": {"g_armed_faults"},
    "src/common/fault.h": {"g_armed_faults"},
    "src/common/check.cpp": {"g_check_finite"},
    "src/common/alloc_guard.cpp": {
        "t_alloc_guard", "g_alloc_guard_enabled", "g_violations",
    },
    "src/common/alloc_guard.h": {"t_alloc_guard", "g_alloc_guard_enabled"},
    "src/exec/workspace_guard.cpp": {"g_ws_guard_enabled"},
}


def _under(*tops, suffix="", exempt=()):
    """Scope predicate over a root-relative path: its first component is one
    of `tops`, it ends with `suffix`, and it is not an `exempt` file."""
    return lambda rel: (rel.split("/", 1)[0] in tops and rel.endswith(suffix)
                        and rel not in exempt)


# Per-file pattern rules: id -> (applies(relpath), pattern, message). Patterns
# match comment- and string-stripped lines, except impl-header-in-public,
# whose include path is a string literal and so matches the raw line.
LINE_RULES = {
    "raw-new-array": (
        _under("src"), re.compile(r"\bnew\s+[A-Za-z_][\w:]*\s*\["),
        "naked new[]; use std::vector, Tensor, or workspace"),
    "raw-malloc": (
        _under("src", exempt=RAW_MALLOC_EXEMPT_FILES),
        re.compile(r"\b(malloc|calloc|realloc|free)\s*\("),
        "raw malloc/calloc/realloc/free; use containers or Tensor"),
    "deterministic-rng": (
        _under(*FILE_SCOPES),
        re.compile(r"\bstd::rand\b|\bsrand\s*\(|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"
                   r"|\bstd::random_device\b|\bstd::mt19937\b"),
        "nondeterministic randomness; use tdc::Rng with an explicit seed"),
    "check-macros": (
        _under(*FILE_SCOPES),
        re.compile(r"\bassert\s*\(|\bthrow\s+std::(runtime_error|logic_error)\b"),
        "use TDC_CHECK*/tdc::Error instead of assert or bare "
        "std::runtime_error"),
    "no-openmp": (
        _under(*FILE_SCOPES), re.compile(r"#\s*pragma\s+omp\b"),
        "OpenMP pragma; use tdc::parallel_for (common/parallel.h)"),
    "raw-thread": (
        _under("src", exempt=RAW_THREAD_EXEMPT_FILES),
        re.compile(r"\bstd::(thread|jthread|async)\b"),
        "raw thread; build-time concurrency goes through tdc::parallel_for"),
    "impl-header-in-public": (
        _under("src", suffix=".h"),
        re.compile(r'#\s*include\s+"[^"]*_impl\.h"'),
        "public header includes an internal *_impl.h header"),
}

RULE_EXPLAIN = {
    "run-path-alloc":
        "A function reachable from a TDC_RUN_PATH root performs heap\n"
        "allocation (new/delete, malloc family, container growth, an\n"
        "allocating local, make_unique/make_shared/to_string). Run paths\n"
        "are allocation-free at steady state — the invariant DenyAllocGuard\n"
        "enforces at runtime. Warm-up growth belongs inside an\n"
        "AllowAllocScope block (recognized structurally); anything else\n"
        "needs a TDC_ANALYZE_ALLOW(run-path-alloc) with a justification.",
    "run-path-function":
        "std::function construction on the run path type-erases through a\n"
        "possible heap allocation and an indirect call. Use\n"
        "tdc::FunctionRef (common/function_ref.h): non-owning, never\n"
        "allocates — the pool hot path moved to it in PR 7.",
    "run-path-lock":
        "A mutex acquisition is reachable from a run-path root. Serving\n"
        "latency must not depend on lock contention; the only sanctioned\n"
        "blocking points are the pool's fork/join handoff and one-time\n"
        "lazy initialization, each carrying TDC_ANALYZE_ALLOW(run-path-lock)\n"
        "next to its justification.",
    "run-path-io":
        "I/O (stdio, iostreams, file streams) reachable from a run-path\n"
        "root. Diagnostics belong off the hot path; the one escape is a\n"
        "one-shot note (see note_serial_fallback).",
    "run-path-nondet":
        "A nondeterministic call (rand, std::random_device, wall-clock\n"
        "time) is reachable from a run-path root. Results are bit-identical\n"
        "across runs and thread counts; the only sanctioned clock is\n"
        "steady_clock inside Deadline (monotonic scheduling, never data).",
    "layering":
        "An include climbs the tier DAG (common -> linalg/fft/tensor ->\n"
        "conv/core/tucker/gpusim -> exec -> nn/serving/autograd/train).\n"
        "Lower tiers must stay ignorant of upper tiers; move the shared\n"
        "type down a tier instead (cf. core/model_spec.h, which moved out\n"
        "of nn/ for exactly this reason).",
    "non-raii-lock":
        "A bare mutex.lock()/try_lock() outside a RAII wrapper. An\n"
        "exception between lock() and unlock() deadlocks the process; use\n"
        "std::lock_guard / scoped_lock / unique_lock. Re-locking a named\n"
        "unique_lock is fine — the wrapper still owns the release.",
    "lock-across-pool":
        "A lock is held across a call into the thread pool (parallel_for /\n"
        "parallel_reduce / run_chunked). A worker chunk that touches the\n"
        "same lock deadlocks; time under the pool multiplies lock hold\n"
        "time by the region length. Release before fanning out (the\n"
        "autotuner times candidates outside the tuner lock for this\n"
        "reason). The one sanctioned case is the pool's own region\n"
        "admission lock in run_chunked.",
    "lock-across-callback":
        "A lock is held across an invocation of a caller-provided callback\n"
        "(std::function / FunctionRef / template callable parameter). The\n"
        "callback can call back into the locking component and deadlock —\n"
        "the classic reentrancy bug. Copy what the callback needs, unlock,\n"
        "then call.",
    "unregistered-singleton":
        "A mutable namespace-scope g_*/t_* variable under src/ that is not\n"
        "in the REGISTERED_SINGLETONS table of this tool. Process-wide\n"
        "mutable state is where the races live; registration is a reviewed\n"
        "act that documents the synchronization discipline. Function-local\n"
        "statics and const/constexpr globals are exempt.",
    "raw-new-array":
        "Naked new T[n] under src/. Raw array new has no owner and no\n"
        "exception safety; buffers are std::vector, Tensor, or a workspace\n"
        "slice. A deliberate raw allocation (e.g. a fault-injection plant)\n"
        "carries a line escape with its justification.",
    "raw-malloc":
        "malloc/calloc/realloc/free under src/. C allocation bypasses\n"
        "operator new and therefore the DenyAllocGuard interposition; the\n"
        "only translation unit allowed to touch malloc/free is\n"
        "src/common/alloc_guard.cpp, which implements the interposed\n"
        "operators themselves (RAW_MALLOC_EXEMPT_FILES).",
    "deterministic-rng":
        "std::rand, srand, time()-derived seeds, std::random_device or bare\n"
        "std::mt19937 in src/, tests/ or bench/. Results are bit-identical\n"
        "across runs and thread counts; the only randomness source is\n"
        "tdc::Rng with an explicit seed.",
    "check-macros":
        "assert() or a bare throw std::runtime_error/logic_error in src/,\n"
        "tests/ or bench/. assert() vanishes under NDEBUG and aborts\n"
        "instead of throwing; bare standard exceptions lose the ErrorCode\n"
        "taxonomy the serving tier dispatches on. Use TDC_CHECK /\n"
        "TDC_CHECK_MSG / TDC_CHECK_INTERNAL or throw tdc::Error with an\n"
        "explicit code.",
    "no-openmp":
        "#pragma omp in src/, tests/ or bench/. Every multi-threaded loop\n"
        "funnels through the shared runtime (tdc::parallel_for) so thread\n"
        "count, nesting policy, deadline and alloc-guard propagation stay\n"
        "consistent; an OpenMP pragma would fork outside all of that.",
    "raw-thread":
        "std::thread, std::jthread or std::async under src/ outside\n"
        "src/common/parallel.cpp, which owns the pool's workers\n"
        "(RAW_THREAD_EXEMPT_FILES). Concurrency inside the library, build-time\n"
        "work such as tucker_decompose_all included, runs as a region of the\n"
        "shared pool so the arena caps (inter_op/intra_op), deadline and\n"
        "alloc-guard propagation, exception capture and ParallelStats all\n"
        "apply; a private thread bypasses every one of them.",
    "impl-header-in-public":
        "A header under src/ includes a *_impl.h file. Headers under src/\n"
        "are the library's public surface; *_impl.h files are internal\n"
        "factory/detail seams, and leaking them into every consumer defeats\n"
        "the one-algorithm-per-TU layout.",
}

# --------------------------------------------------------------------- IR --


class Event:
    __slots__ = ("kind", "line", "detail")

    def __init__(self, kind, line, detail=""):
        self.kind = kind    # rule id for direct findings; "call" for edges
        self.line = line
        self.detail = detail


class Call:
    __slots__ = ("name", "arity", "line", "qualified")

    def __init__(self, name, arity, line, qualified):
        self.name = name          # last component
        self.arity = arity
        self.line = line
        self.qualified = qualified  # full spelled name (may equal name)


class FunctionRecord:
    def __init__(self, qname, name, relpath, line):
        self.qname = qname
        self.name = name
        self.relpath = relpath
        self.line = line
        self.end_line = line
        self.arity_min = 0
        self.arity_max = 0
        self.is_run_path = False
        self.is_noreturn = False
        self.internal = False    # internal linkage: static / anonymous ns
        self.allows = set()      # waived rule ids (TDC_ANALYZE_ALLOW)
        self.events = []         # purity/lock Events
        self.calls = []          # Call edges

    def __repr__(self):
        return f"<fn {self.qname} @ {self.relpath}:{self.line}>"


class FileRecord:
    def __init__(self, relpath):
        self.relpath = relpath
        self.includes = []       # (line, include_path)
        self.functions = []


# --------------------------------------------------------- per-file rules --


def strip_comments_and_strings(text: str) -> str:
    """Blanks //, /* */ comments and "..."/'...' literals, preserving line
    structure so line numbers and brace counts stay aligned."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | dquote | squote
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "dquote"
                out.append(" ")
                i += 1
                continue
            if ch == "'":
                state = "squote"
                out.append(" ")
                i += 1
                continue
            out.append(ch)
            i += 1
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
            i += 1
        else:  # dquote / squote
            quote = '"' if state == "dquote" else "'"
            if ch == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
            out.append("\n" if ch == "\n" else " ")
            i += 1
    return "".join(out)


LINE_ALLOW_RE = re.compile(r"//\s*tdc-analyze:\s*allow\(([a-z0-9_,\- ]+)\)")
SINGLETON_DECL_RE = re.compile(
    r"^\s*(?:static\s+|thread_local\s+|inline\s+)*"
    r"[A-Za-z_][\w:<>,*&\s]*[\s&*]"
    r"(g_[a-z0-9_]+|t_[a-z0-9_]+)\s*[;={(]")


def _line_allows(lines):
    """Line number (1-based) -> rule ids waived by a line escape. An escape
    alone on its line also covers the next line."""
    allows = {}
    for idx, line in enumerate(lines, start=1):
        m = LINE_ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allows.setdefault(idx, set()).update(rules)
        if line.strip().startswith("//"):
            allows.setdefault(idx + 1, set()).update(rules)
    return allows


def check_file_text(rel, text):
    """The per-file rules over one file: [(rel, line, rule, message)]."""
    raw = text.splitlines()
    code = strip_comments_and_strings(text).splitlines()
    allows = _line_allows(raw)
    findings = []
    for rule, (applies, rx, message) in LINE_RULES.items():
        if not applies(rel):
            continue
        lines = raw if rule == "impl-header-in-public" else code
        for idx, line in enumerate(lines, start=1):
            if rx.search(line) and rule not in allows.get(idx, ()):
                findings.append((rel, idx, rule, message))
    if rel.split("/", 1)[0] != "src":
        return findings
    # Mutable file-scope globals: namespace-scope g_*/t_* declarations (brace
    # depth <= 2 covers `namespace tdc { namespace {`) that are neither
    # const/constexpr nor registered. No line escape: registration is it.
    registered = REGISTERED_SINGLETONS.get(rel, set())
    depth = 0
    for idx, line in enumerate(code, start=1):
        m = SINGLETON_DECL_RE.match(line) if depth <= 2 else None
        depth += line.count("{") - line.count("}")
        if (m is None or m.group(1) in registered or line.strip().startswith(
                ("const ", "constexpr ", "inline constexpr"))):
            continue
        findings.append((rel, idx, "unregistered-singleton",
                         f"mutable file-scope '{m.group(1)}' is not in the "
                         "registered-singleton table (REGISTERED_SINGLETONS "
                         "in tools/analyze/tdc_analyze.py)"))
    return findings


# ------------------------------------------------------- shared body scan --

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:::[A-Za-z_~][A-Za-z0-9_]*)*")
TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:::[A-Za-z_~][A-Za-z0-9_]*)*"
                      r"|[{}().,]|->|\[\[|\]\]")
ALLOC_DECL_RE = re.compile(
    r"^(?:<[^;{}()]*>)?\s*(?:[A-Za-z_]\w*\s*[({=]|[({])")
ALLOW_MACRO_RE = re.compile(r"TDC_ANALYZE_ALLOW\s*\(\s*([A-Za-z0-9_\-]+)\s*\)")


def _line_of(offsets, pos):
    """1-based line for a char offset, via bisection over line-start offsets."""
    lo, hi = 0, len(offsets) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if offsets[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def _match_paren(code, open_pos):
    """Offset just past the ')' matching the '(' at open_pos (len(code) if
    unbalanced)."""
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def _match_brace(code, open_pos):
    """Offset just past the '}' matching the '{' at open_pos."""
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def _call_arity(code, open_pos):
    """Number of top-level comma-separated arguments of the paren group at
    open_pos; 0 for an empty argument list."""
    depth = 0
    angle = 0
    args = 0
    saw_any = False
    for i in range(open_pos, len(code)):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                return args + 1 if saw_any else 0
        elif c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == "," and depth == 1 and angle == 0:
            args += 1
        elif not c.isspace() and depth >= 1:
            saw_any = True
    return args + 1 if saw_any else 0


def _prev_nonspace(code, pos):
    i = pos - 1
    while i >= 0 and code[i].isspace():
        i -= 1
    return code[i] if i >= 0 else ""


def _prev_token(code, pos):
    """The identifier immediately before pos (skipping whitespace), or ''."""
    i = pos - 1
    while i >= 0 and code[i].isspace():
        i -= 1
    end = i + 1
    while i >= 0 and (code[i].isalnum() or code[i] in "_:"):
        i -= 1
    return code[i + 1:end]


def _next_nonspace(code, pos):
    i = pos
    while i < len(code) and code[i].isspace():
        i += 1
    return code[i] if i < len(code) else "", i


def scan_body(func, code, body_start, body_end, offsets, callback_params):
    """The shared event engine: walks the comment-stripped body text of one
    function and appends purity/lock events and call edges to `func`.

    Used verbatim by both frontends — the clang frontend contributes precise
    function boundaries and annotations, but events come from here, so the
    frontends can never disagree on what constitutes a finding.
    """
    depth = 0
    allow_alloc_depths = []   # depths with a live AllowAllocScope
    lock_scopes = []          # [depth, name, line, raw(bool)]
    relockable = set()        # unique_lock/shared_lock variable names
    i = body_start
    while i < body_end:
        m = TOKEN_RE.search(code, i, body_end)
        if m is None:
            break
        tok = m.group(0)
        pos = m.start()
        i = m.end()
        if tok == "{":
            depth += 1
            continue
        if tok == "}":
            depth -= 1
            while allow_alloc_depths and allow_alloc_depths[-1] > depth:
                allow_alloc_depths.pop()
            while lock_scopes and lock_scopes[0 if False else -1][0] > depth:
                lock_scopes.pop()
            continue
        if tok in "().,»" or tok in ("->", "[[", "]]"):
            continue
        if not tok[0].isalpha() and tok[0] != "_":
            continue

        line = _line_of(offsets, pos)
        last = tok.rsplit("::", 1)[-1]
        prev = _prev_nonspace(code, pos)
        is_member = prev == "." or (prev == ">" and code[pos - 2:pos] == "->")
        nxt, nxt_pos = _next_nonspace(code, i)

        # Structural allow: waives the named rule for this function.
        if last == "TDC_ANALYZE_ALLOW" and nxt == "(":
            am = ALLOW_MACRO_RE.match(code, pos)
            if am:
                func.allows.add(am.group(1))
            i = _match_paren(code, nxt_pos)
            continue

        # Cold/unevaluated argument expressions.
        if last in COLD_MACROS and nxt == "(":
            i = _match_paren(code, nxt_pos)
            continue

        # `if (fault_injected(...)) { ... }`: the whole guarded block is a
        # test-only fault plant, cold at steady state.
        if tok == "if" and nxt == "(":
            cond_end = _match_paren(code, nxt_pos)
            cond = code[nxt_pos:cond_end]
            if any(c in cond for c in COLD_IF_CALLS):
                brace, brace_pos = _next_nonspace(code, cond_end)
                if brace == "{":
                    i = _match_brace(code, brace_pos)
                else:
                    i = cond_end
                continue
            # otherwise fall through: scan the condition normally
            continue

        if tok in CXX_KEYWORDS and tok not in ("new", "delete"):
            continue

        # --- purity events -------------------------------------------------
        if tok in ("new", "delete"):
            if not allow_alloc_depths:
                func.events.append(Event("run-path-alloc", line,
                                         f"'{tok}' expression"))
            continue

        if is_member and last in GROWTH_METHODS and nxt == "(":
            if not allow_alloc_depths:
                func.events.append(Event(
                    "run-path-alloc", line,
                    f".{last}() may grow its container"))
            i = _match_paren(code, nxt_pos)
            continue

        if last in ALLOC_CALLS and nxt == "(" and not is_member:
            if not allow_alloc_depths:
                func.events.append(Event("run-path-alloc", line,
                                         f"{last}() allocates"))
            # still record the call edge (malloc etc. have no defs here)
            func.calls.append(Call(last, _call_arity(code, nxt_pos), line, tok))
            i = _match_paren(code, nxt_pos)
            continue

        if last == "AllowAllocScope":
            # A declared AllowAllocScope suppresses allocation events for
            # the remainder of the enclosing block (mirrors its RAII scope).
            allow_alloc_depths.append(depth)
            continue

        if tok == "std::function" or (tok.endswith("::function") and
                                      tok.startswith("std")):
            func.events.append(Event("run-path-function", line,
                                     "std::function construction/use"))
            continue

        if (tok in ALLOC_TYPES or tok.rstrip(":") in ALLOC_TYPES) and \
                not is_member:
            # Local of an allocating type with an initializer.
            if ALLOC_DECL_RE.match(code[i:body_end]) and not allow_alloc_depths:
                func.events.append(Event("run-path-alloc", line,
                                         f"local {tok} construction"))
            continue

        if (last in IO_CALLS and nxt == "(" and not is_member) or \
                (last in IO_STREAMS and tok.startswith("std")):
            func.events.append(Event("run-path-io", line, f"I/O via {last}"))
            if nxt == "(":
                i = _match_paren(code, nxt_pos)
            continue

        if (last in NONDET_CALLS and nxt == "(" and not is_member and
                tok in (last, "std::" + last)) or last in NONDET_TYPES:
            func.events.append(Event("run-path-nondet", line,
                                     f"nondeterministic {last}"))
            if nxt == "(":
                i = _match_paren(code, nxt_pos)
            continue

        # --- lock discipline ----------------------------------------------
        if last in LOCK_RAII:
            func.events.append(Event("run-path-lock", line,
                                     f"{last} acquisition"))
            lock_scopes.append([depth, last, line, False])
            if last in ("unique_lock", "shared_lock"):
                dm = re.match(r"\s*(?:<[^;{}]*>)?\s*([A-Za-z_]\w*)\s*[({]",
                              code[i:body_end])
                if dm:
                    relockable.add(dm.group(1))
            continue

        if is_member and last in ("lock", "try_lock") and nxt == "(":
            recv = _prev_token(code, pos - (1 if prev == "." else 2))
            if recv in relockable:
                func.events.append(Event("run-path-lock", line,
                                         f"{recv}.{last}() (RAII re-lock)"))
            else:
                func.events.append(Event("run-path-lock", line,
                                         f"bare {recv}.{last}()"))
                func.events.append(Event(
                    "non-raii-lock", line,
                    f"bare {recv or 'mutex'}.{last}(); use lock_guard/"
                    "scoped_lock/unique_lock"))
                lock_scopes.append([depth, recv, line, True])
            i = _match_paren(code, nxt_pos)
            continue

        if is_member and last == "unlock" and nxt == "(":
            recv = _prev_token(code, pos - (1 if prev == "." else 2))
            for s in reversed(lock_scopes):
                if s[3] and s[1] == recv:
                    lock_scopes.remove(s)
                    break
            i = _match_paren(code, nxt_pos)
            continue

        # --- pool / callback calls under a lock ----------------------------
        pool_call = (last in POOL_CALLS and nxt == "(") or \
            (last == "run" and nxt == "(" and is_member and
             _prev_token(code, pos - 2).startswith("pool"))
        if pool_call:
            if lock_scopes:
                held = lock_scopes[-1]
                func.events.append(Event(
                    "lock-across-pool", line,
                    f"{last}() called with the lock from line {held[2]} "
                    "held"))
            func.calls.append(Call(last, _call_arity(code, nxt_pos), line,
                                   tok))
            continue

        if tok in callback_params and nxt == "(" and not is_member:
            if lock_scopes:
                held = lock_scopes[-1]
                func.events.append(Event(
                    "lock-across-callback", line,
                    f"callback '{tok}' invoked with the lock from line "
                    f"{held[2]} held"))
            continue

        # --- plain call edge -----------------------------------------------
        if is_member and last in STD_MEMBERS:
            continue
        if nxt == "(" and not tok.isupper():
            func.calls.append(Call(last, _call_arity(code, nxt_pos), line,
                                   tok))
            continue
    return func


# -------------------------------------------------------- fallback frontend --

QUALIFIER_TOKENS = {"const", "noexcept", "override", "final", "mutable",
                    "try", "volatile", "&", "&&"}
CLASS_HEAD_RE = re.compile(
    r"\b(class|struct|union|enum)\b(?:\s+class|\s+struct)?"
    r"\s*(?:\[\[[^\]]*\]\]\s*)?([A-Za-z_]\w*)?[^;(]*$")
NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\s*([A-Za-z_][\w:]*)?\s*$")
TEMPLATE_PARAM_RE = re.compile(r"\b(?:class|typename)(?:\s*\.\.\.)?\s+"
                               r"([A-Za-z_]\w*)")
NORETURN_DECL_RE = re.compile(
    r"\[\[\s*noreturn\s*\]\][^;{(]*?\b([A-Za-z_]\w*)\s*\(")
# Conditional-compilation lines between two declarations belong to neither:
# a head loses them before it is classified, so `#if X` followed by
# `void f() {` still reads as the definition of f.
PP_CONDITIONAL_RE = re.compile(
    r"^[ \t]*#[ \t]*(?:if|ifdef|ifndef|elif|else|endif)\b.*$", re.M)


def _param_info(params_text):
    """(arity_min, arity_max, callback_param_names, template_names_used)."""
    text = params_text.strip()
    if text in ("", "void"):
        return 0, 0, []
    parts = []
    depth = angle = 0
    start = 0
    for idx, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == "," and depth == 0 and angle == 0:
            parts.append(text[start:idx])
            start = idx + 1
    parts.append(text[start:])
    arity_max = len(parts)
    defaults = sum(1 for p in parts if re.search(r"=", p))
    if any("..." in p for p in parts):
        arity_max = 64
    callbacks = []
    for p in parts:
        nm = re.search(r"([A-Za-z_]\w*)\s*$", p.strip())
        if not nm:
            continue
        if ("std::function" in p or "FunctionRef" in p or
                re.match(r"^\s*(?:const\s+)?(?:[A-Z]\w*)\s*[&]{0,2}\s*"
                         + re.escape(nm.group(1)) + r"\s*$", p.strip())):
            # std::function/FunctionRef params, or a bare template-typed
            # callable (`const F& f`); refined against the template header
            # by the caller.
            callbacks.append((p.strip(), nm.group(1)))
    return len(parts) - defaults, arity_max, callbacks


def _extract_function_head(head):
    """(qname_suffix, params_text, template_names, run_path, noreturn) for a
    head that precedes a function body '{', else None."""
    h = head.strip()
    if not h or h.endswith("=") or h.startswith("#"):
        return None
    template_names = set(TEMPLATE_PARAM_RE.findall(h))
    # Find the parameter list: the first top-level '(' preceded by a
    # plausible (possibly qualified) function name.
    depth = angle = 0
    idx = 0
    while idx < len(h):
        c = h[idx]
        if c == "(":
            if depth == 0:
                name = _prev_token(h, idx)
                bare = name.rsplit("::", 1)[-1]
                if (name and bare not in CXX_KEYWORDS and
                        not bare.isupper() and
                        not name.endswith("::")):
                    close = _match_paren(h, idx)
                    params = h[idx + 1:close - 1]
                    return (name, params, template_names,
                            "TDC_RUN_PATH" in h, "[[noreturn]]" in h
                            or "__attribute__((noreturn))" in h)
                depth += 1
            else:
                depth += 1
        elif c == ")":
            depth -= 1
        idx += 1
    return None


class FallbackFrontend:
    """Structural C++ scan: no compiler, no dependencies. Overapproximates
    call edges (name + arity matching) which is exactly the conservative
    direction for a reachability proof."""

    name = "fallback"

    def __init__(self, root, paths):
        self.root = Path(root)
        self.paths = paths

    def parse(self):
        files = []
        for f in iter_cxx_files(self.paths):
            text = f.read_text(encoding="utf-8", errors="replace")
            files.append(self.parse_text(rel_path(self.root, f), text))
        return files

    def parse_text(self, rel, text):
        fr = FileRecord(rel)
        for idx, line in enumerate(text.splitlines(), start=1):
            m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
            if m:
                fr.includes.append((idx, m.group(1)))
        code = strip_comments_and_strings(text)
        offsets = [0]
        for idx, c in enumerate(code):
            if c == "\n":
                offsets.append(idx + 1)
        noreturn_names = set(NORETURN_DECL_RE.findall(code))

        scopes = []  # (kind, name)
        head_start = 0
        i = 0
        n = len(code)
        while i < n:
            c = code[i]
            if c == ";" and not _in_function(scopes):
                head_start = i + 1
                i += 1
                continue
            if c == "(" and not _in_function(scopes):
                # Skip paren groups in declarative context so `;`/braces
                # inside default arguments never confuse the segmentation.
                j = _match_paren(code, i)
                i = j
                continue
            if c == "{":
                if _in_function(scopes):
                    scopes.append(("block", ""))
                    i += 1
                    continue
                head = code[head_start:i]
                kind, name, info = self._classify(head)
                if kind == "init":  # braced initializer inside a head
                    i = _match_brace(code, i)
                    continue
                if kind == "function":
                    qname = "::".join([s[1] for s in scopes
                                      if s[0] in ("namespace", "class")
                                      and s[1]] + [info["name"]])
                    rec = FunctionRecord(qname, info["name"].rsplit("::", 1)[-1],
                                         rel, _line_of(offsets, i))
                    # Internal linkage limits call resolution to the same
                    # file — but only for FREE functions: a method of an
                    # anonymous-namespace class can still be reached from
                    # anywhere through a public virtual (the op-plan
                    # run_node overrides), so methods stay global.
                    in_class = any(s[0] == "class" for s in scopes)
                    in_anon_ns = any(s[0] == "namespace" and not s[1]
                                     for s in scopes)
                    rec.internal = not in_class and "::" not in info["name"] \
                        and (in_anon_ns or
                             re.search(r"(?:^|\s)static\s", head)
                             is not None)
                    amin, amax, cb = _param_info(info["params"])
                    rec.arity_min, rec.arity_max = amin, amax
                    rec.is_run_path = info["run_path"]
                    rec.is_noreturn = (info["noreturn"] or
                                       rec.name in noreturn_names)
                    callback_names = {nm for (ptxt, nm) in cb
                                      if "function" in ptxt
                                      or "FunctionRef" in ptxt
                                      or any(t in ptxt.split()
                                             for t in info["templates"])
                                      or re.match(r"^(const\s+)?[A-Z]\w*\s*&&?\s*"
                                                  + re.escape(nm) + r"$",
                                                  ptxt)}
                    body_end = _match_brace(code, i)
                    rec.end_line = _line_of(offsets, body_end - 1)
                    scan_body(rec, code, i + 1, body_end - 1, offsets,
                              callback_names)
                    fr.functions.append(rec)
                    i = body_end
                    head_start = i
                    continue
                scopes.append((kind, name))
                head_start = i + 1
                i += 1
                continue
            if c == "}":
                if scopes:
                    scopes.pop()
                head_start = i + 1
                i += 1
                continue
            i += 1
        return fr

    @staticmethod
    def _classify(head):
        h = PP_CONDITIONAL_RE.sub("", head).strip()
        nm = NAMESPACE_HEAD_RE.search(h)
        if nm:
            return "namespace", nm.group(1) or "", None
        cm = CLASS_HEAD_RE.search(h)
        if cm and "(" not in h[cm.start():]:
            return "class", cm.group(2) or "", None
        fn = _extract_function_head(h)
        if fn is not None:
            name, params, templates, run_path, noreturn = fn
            # Distinguish a real body from a braced member initializer in a
            # ctor init list: a body's head ends with ')' or a qualifier.
            tail = h.rstrip()
            last_tok = _prev_token(tail + " ", len(tail) + 1)
            if not (tail.endswith(")") or tail.endswith(">")
                    or last_tok in QUALIFIER_TOKENS or tail.endswith("]]")):
                return "init", "", None
            return "function", name, {
                "name": name, "params": params, "templates": templates,
                "run_path": run_path, "noreturn": noreturn}
        if h.endswith("=") or (h and h[-1] not in ")>"
                               and _prev_token(h + " ", len(h) + 1)
                               not in QUALIFIER_TOKENS):
            return "init", "", None
        return "other", "", None


def _in_function(scopes):
    return any(s[0] in ("function", "block") for s in scopes)


# ---------------------------------------------------------- clang frontend --


class ClangFrontend:
    """libclang-driven symbol discovery over compile_commands.json. Function
    boundaries, qualified names and annotate-attributes come from the AST;
    body events go through the same shared scan_body engine as the fallback
    so findings are frontend-independent."""

    name = "clang"

    def __init__(self, root, paths, compile_db):
        import clang.cindex as ci
        self.ci = ci
        self.root = Path(root)
        self.paths = paths
        self.compile_db = compile_db
        self._configure(ci)

    @staticmethod
    def _configure(ci):
        import os
        override = os.environ.get("TDC_LIBCLANG")
        candidates = [override] if override else []
        try:
            import clang
            pkg = Path(clang.__file__).parent / "native" / "libclang.so"
            candidates.append(str(pkg))
        except Exception:
            pass
        candidates += [
            "/usr/lib/llvm-14/lib/libclang.so.1",
            "/usr/lib/x86_64-linux-gnu/libclang-14.so.1",
        ]
        for cand in candidates:
            if cand and Path(cand).exists():
                try:
                    ci.Config.set_library_file(cand)
                    break
                except Exception:
                    pass
        try:
            ci.Index.create()
        except Exception as exc:  # pragma: no cover
            raise RuntimeError(f"libclang unusable: {exc}")

    def _compile_args(self, path):
        if self.compile_db is None:
            return ["-std=c++20", f"-I{self.root}/src",
                    f"-I{REPO_ROOT}/src"]
        cmds = self.compile_db.getCompileCommands(str(path))
        if not cmds:
            return ["-std=c++20", f"-I{self.root}/src",
                    f"-I{REPO_ROOT}/src"]
        args = list(cmds[0].arguments)[1:]  # drop the compiler itself
        out = []
        skip = False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if a == str(path) or a.endswith(".cpp"):
                continue
            out.append(a)
        return out

    def parse(self):
        ci = self.ci
        index = ci.Index.create()
        files = []
        done_rels = set()  # cross-TU dedup: shared headers harvest once
        sources = [f for f in iter_cxx_files(self.paths)
                   if f.suffix == ".cpp"]
        headers = [f for f in iter_cxx_files(self.paths) if f.suffix == ".h"]
        for src in sources:
            try:
                tu = index.parse(
                    str(src), args=self._compile_args(src),
                    options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
            except ci.TranslationUnitLoadError as exc:
                raise RuntimeError(f"libclang failed to parse {src}: {exc}")
            files.extend(self._harvest(tu, done_rels))
        # Headers never pulled in by any TU still get scanned (fallback
        # engine only) so self-contained-but-unused headers don't go dark.
        fb = FallbackFrontend(self.root, [])
        for h in headers:
            rel = rel_path(self.root, h)
            if rel in done_rels:
                continue
            files.append(fb.parse_text(
                rel, h.read_text(encoding="utf-8", errors="replace")))
        return files

    def _harvest(self, tu, done_rels):
        ci = self.ci
        texts = {}      # rel -> (code, offsets)
        records = {}    # rel -> FileRecord

        def file_slot(rel, fname):
            if rel in done_rels:
                return None  # harvested by an earlier TU
            if rel not in records:
                text = Path(fname).read_text(encoding="utf-8",
                                             errors="replace")
                fr = FileRecord(rel)
                for idx, line in enumerate(text.splitlines(), start=1):
                    m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
                    if m:
                        fr.includes.append((idx, m.group(1)))
                code = strip_comments_and_strings(text)
                offsets = [0]
                for idx2, ch in enumerate(code):
                    if ch == "\n":
                        offsets.append(idx2 + 1)
                texts[rel] = (code, offsets)
                records[rel] = fr
            return records[rel]

        fn_kinds = {ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                    ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
                    ci.CursorKind.FUNCTION_TEMPLATE}

        def qname(cur):
            parts = []
            p = cur.semantic_parent
            while p is not None and p.kind != ci.CursorKind.TRANSLATION_UNIT:
                if p.spelling:
                    parts.append(p.spelling)
                p = p.semantic_parent
            return "::".join(reversed(parts)) + ("::" if parts else "") \
                + cur.spelling

        def visit(cur):
            if cur.kind in fn_kinds and cur.is_definition():
                loc = cur.location
                if loc.file is None:
                    return
                fpath = Path(loc.file.name).resolve()
                try:
                    fpath.relative_to(self.root)
                except ValueError:
                    return
                rel = rel_path(self.root, fpath)
                fr = file_slot(rel, loc.file.name)
                if fr is None:
                    return  # file already harvested by an earlier TU
                rec = FunctionRecord(qname(cur), cur.spelling, rel, loc.line)
                rec.end_line = cur.extent.end.line
                try:
                    # Free functions only: anonymous-namespace class methods
                    # are reachable through public virtual dispatch.
                    rec.internal = (
                        cur.kind == ci.CursorKind.FUNCTION_DECL and
                        cur.linkage == ci.LinkageKind.INTERNAL)
                except Exception:
                    pass
                args = list(cur.get_arguments())
                defaults = 0
                callback_names = set()
                for a in args:
                    ts = a.type.spelling if a.type else ""
                    if "function" in ts or "FunctionRef" in ts:
                        callback_names.add(a.spelling)
                    for tok in list(a.get_tokens()):
                        if tok.spelling == "=":
                            defaults += 1
                            break
                if args or cur.kind != ci.CursorKind.FUNCTION_TEMPLATE:
                    rec.arity_max = len(args)
                    rec.arity_min = max(0, len(args) - defaults)
                else:
                    # Template with no argument info exposed: match any call.
                    rec.arity_min, rec.arity_max = 0, 64
                for child in cur.get_children():
                    if child.kind == ci.CursorKind.ANNOTATE_ATTR:
                        if child.spelling == "tdc-run-path":
                            rec.is_run_path = True
                        elif child.spelling.startswith("tdc-analyze-allow:"):
                            rec.allows.add(child.spelling.split(":", 1)[1])
                try:
                    toks = {t.spelling for t in cur.get_tokens()}
                    if "noreturn" in toks:
                        rec.is_noreturn = True
                except Exception:
                    pass
                code, offsets = texts[rel]
                start = offsets[min(rec.line, len(offsets)) - 1]
                # Body brace: first '{' at paren depth 0 (skips braced
                # default arguments and ctor-init-list braced members).
                open_pos = -1
                pdepth = 0
                for k in range(start, len(code)):
                    ch = code[k]
                    if ch == "(":
                        pdepth += 1
                    elif ch == ")":
                        pdepth = max(0, pdepth - 1)
                    elif ch == "{" and pdepth == 0:
                        open_pos = k
                        break
                    elif ch == ";" and pdepth == 0:
                        break
                if open_pos != -1:
                    body_end = _match_brace(code, open_pos)
                    # Template callables aren't in callback_names yet; the
                    # shared engine re-derives them from the head text.
                    head = code[max(0, start - 1):open_pos]
                    templates = set(TEMPLATE_PARAM_RE.findall(head))
                    _, _, cbs = _param_info(
                        code[code.find("(", start) + 1:
                             _match_paren(code, code.find("(", start)) - 1]
                        if code.find("(", start) != -1 else "")
                    for ptxt, nm in cbs:
                        if ("function" in ptxt or "FunctionRef" in ptxt or
                                any(t in ptxt.split() for t in templates)):
                            callback_names.add(nm)
                    if "TDC_RUN_PATH" in head:
                        rec.is_run_path = True
                    scan_body(rec, code, open_pos + 1, body_end - 1, offsets,
                              callback_names)
                fr.functions.append(rec)
                return  # children of a definition are covered by scan_body
            for child in cur.get_children():
                visit(child)

        for child in tu.cursor.get_children():
            visit(child)
        done_rels.update(records)
        return list(records.values())


# ------------------------------------------------------------------ policy --


def rel_path(root, path):
    """`path` relative to `root` in posix form (as given if outside it)."""
    try:
        return Path(path).resolve().relative_to(root).as_posix()
    except ValueError:
        return Path(path).as_posix()


def iter_cxx_files(paths):
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(f for f in p.rglob("*")
                              if f.suffix in CXX_SUFFIXES)
        elif p.suffix in CXX_SUFFIXES:
            yield p


class Analysis:
    def __init__(self, files):
        self.files = files
        self.functions = [fn for fr in files for fn in fr.functions]
        self.by_name = {}
        for fn in self.functions:
            self.by_name.setdefault(fn.name, []).append(fn)
        self.reachable = {}   # FunctionRecord -> (parent, via_line)
        self.findings = []    # (relpath, line, rule, message)

    # -- call graph ---------------------------------------------------------

    def _callees(self, fn):
        out = []
        for call in fn.calls:
            cands = self.by_name.get(call.name, [])
            for cand in cands:
                if cand is fn:
                    continue
                if cand.internal and cand.relpath != fn.relpath:
                    continue  # static / anonymous-namespace: file-local
                if not (cand.arity_min <= call.arity <= cand.arity_max):
                    continue
                if "::" in call.qualified:
                    # qualified call: require the qualification to match a
                    # suffix of the definition's qname
                    want = call.qualified.replace(" ", "")
                    if not (cand.qname.endswith(want) or
                            want.endswith(cand.name)):
                        continue
                out.append((cand, call.line))
        return out

    def compute_reachability(self):
        roots = [fn for fn in self.functions if fn.is_run_path]
        work = list(roots)
        for r in roots:
            self.reachable[r] = (None, r.line)
        while work:
            fn = work.pop()
            if fn.is_noreturn:
                continue  # error sinks are cold; don't traverse further
            for callee, line in self._callees(fn):
                if callee.is_noreturn:
                    continue
                if callee not in self.reachable:
                    self.reachable[callee] = (fn, line)
                    work.append(callee)
        return roots

    def chain(self, fn):
        names = []
        cur = fn
        while cur is not None and len(names) < 8:
            names.append(cur.qname)
            cur = self.reachable.get(cur, (None, 0))[0]
        return " <- ".join(names)

    # -- rules ---------------------------------------------------------------

    def check_purity(self):
        purity_rules = {"run-path-alloc", "run-path-function",
                        "run-path-lock", "run-path-io", "run-path-nondet"}
        for fn in self.reachable:
            if fn.is_noreturn:
                continue
            for ev in fn.events:
                if ev.kind not in purity_rules:
                    continue
                if ev.kind in fn.allows:
                    continue
                self.findings.append((
                    fn.relpath, ev.line, ev.kind,
                    f"{ev.detail} in run-path function {fn.qname} "
                    f"[reachable: {self.chain(fn)}]"))

    def check_lock_discipline(self):
        for fn in self.functions:
            for ev in fn.events:
                if ev.kind in ("non-raii-lock", "lock-across-pool",
                               "lock-across-callback") and \
                        ev.kind not in fn.allows:
                    self.findings.append((fn.relpath, ev.line, ev.kind,
                                          f"{ev.detail} (in {fn.qname})"))

    def check_layering(self):
        for fr in self.files:
            parts = fr.relpath.split("/")
            if len(parts) < 3 or parts[0] != "src":
                continue
            tier = TIERS.get(parts[1])
            if tier is None:
                continue
            for line, inc in fr.includes:
                inc_dir = inc.split("/")[0]
                inc_tier = TIERS.get(inc_dir)
                if inc_tier is None:
                    continue
                if inc_tier > tier:
                    self.findings.append((
                        fr.relpath, line, "layering",
                        f"tier-{tier} '{parts[1]}' includes tier-{inc_tier} "
                        f"'{inc}' — upward edge in the layering DAG"))

    def check_files(self, root, paths):
        for f in iter_cxx_files(paths):
            text = f.read_text(encoding="utf-8", errors="replace")
            self.findings.extend(check_file_text(rel_path(root, f), text))

    def run_all(self, root, file_paths):
        self.compute_reachability()
        self.check_purity()
        self.check_lock_discipline()
        self.check_layering()
        self.check_files(root, file_paths)
        self.findings.sort(key=lambda f: (f[0], f[1], f[2]))
        return self.findings

    # -- artifacts -----------------------------------------------------------

    def reachable_manifest(self):
        funcs = [{"qname": fn.qname, "file": fn.relpath}
                 for fn in sorted(self.reachable, key=lambda fn: (
                     fn.relpath, fn.line, fn.qname))]
        rfiles = sorted({fn.relpath for fn in self.reachable})
        roots = sorted(fn.qname for fn in self.functions if fn.is_run_path)
        return {
            "comment": "Run-path reachability computed by tools/analyze/"
                       "tdc_analyze.py: the roots, the files and the "
                       "functions reachable from them. --check-run-path "
                       "compares the file set. Regenerate with "
                       "--write-run-path.",
            "roots": roots,
            "files": rfiles,
            "functions": funcs,
        }


# --------------------------------------------------------------- frontends --


def load_compile_db(arg):
    """A clang CompilationDatabase for a build dir / db file, or None."""
    if arg is None:
        return None
    p = Path(arg)
    if p.is_file():
        p = p.parent
    try:
        import clang.cindex as ci
        return ci.CompilationDatabase.fromDirectory(str(p))
    except Exception:
        return None


def make_frontend(kind, root, paths, compile_db_arg):
    if kind in ("auto", "clang"):
        try:
            return ClangFrontend(root, paths, load_compile_db(compile_db_arg))
        except Exception as exc:
            if kind == "clang":
                print(f"tdc_analyze: clang frontend unavailable: {exc}",
                      file=sys.stderr)
                sys.exit(2)
    return FallbackFrontend(root, paths)


def analyze(root, paths, frontend_kind, compile_db_arg, file_paths=None):
    """Call graph over `paths`; per-file rules over `file_paths` (default:
    the same paths)."""
    fe = make_frontend(frontend_kind, root, paths, compile_db_arg)
    an = Analysis(fe.parse())
    an.run_all(root, paths if file_paths is None else file_paths)
    return fe, an


# ---------------------------------------------------------------- self-test --

EXPECT_RE = re.compile(
    r"//\s*expect-analyze:\s*([a-z0-9\-]+(?:\s*,\s*[a-z0-9\-]+)*)")


def self_test(frontend_kind, compile_db_arg) -> int:
    corpus = Path(__file__).resolve().parent / "corpus"
    cases = sorted(d for d in corpus.iterdir() if d.is_dir())
    if not cases:
        print("self-test: no corpus cases found", file=sys.stderr)
        return 2
    failures = 0
    for case in cases:
        expected = set()
        for f in iter_cxx_files([case]):
            rel = f.relative_to(case).as_posix()
            for idx, line in enumerate(f.read_text().splitlines(), start=1):
                m = EXPECT_RE.search(line)
                if m:
                    for rid in m.group(1).split(","):
                        expected.add((rel, idx, rid.strip()))
        fe, an = analyze(case, [case], frontend_kind, compile_db_arg)
        actual = {(rel, line, rule) for rel, line, rule, _ in an.findings}
        if actual == expected:
            print(f"PASS {case.name} [{fe.name}]")
        else:
            failures += 1
            print(f"FAIL {case.name} [{fe.name}]")
            for miss in sorted(expected - actual):
                print(f"  expected but not reported: {miss[2]} @ "
                      f"{miss[0]}:{miss[1]}")
            for extra in sorted(actual - expected):
                print(f"  reported but not expected: {extra[2]} @ "
                      f"{extra[0]}:{extra[1]}")
    print(f"self-test: {len(cases) - failures}/{len(cases)} cases passed")
    return 1 if failures else 0


# --------------------------------------------------------------------- CLI --


def explain(rule_id=None) -> int:
    if rule_id is None:
        width = max(len(r) for r in RULE_EXPLAIN)
        for r, text in RULE_EXPLAIN.items():
            print(f"{r:<{width}}  {text.splitlines()[0]}")
        return 0
    if rule_id not in RULE_EXPLAIN:
        print(f"unknown rule '{rule_id}'; known rules:", file=sys.stderr)
        for r in RULE_EXPLAIN:
            print(f"  {r}", file=sys.stderr)
        return 2
    print(f"{rule_id}:\n{RULE_EXPLAIN[rule_id]}\n")
    if rule_id in LINE_RULES:
        print(f"Escape hatch: `// tdc-analyze: allow({rule_id})` on the line "
              "(or alone on the line above) with a justification.")
    elif rule_id == "unregistered-singleton":
        print("No escape: register the name in REGISTERED_SINGLETONS "
              "together with its synchronization discipline.")
    elif rule_id == "layering":
        print("No escape: move the shared declaration down a tier.")
    else:
        print(f"Escape hatch: TDC_ANALYZE_ALLOW({rule_id}) as a declaration "
              "inside the function, with a justifying comment "
              "(src/common/annotations.h; sanctioned uses listed in "
              "tools/analyze/rules.md).")
    return 0


def main(argv) -> int:
    if "--help" in argv or "-h" in argv:
        print(__doc__)
        return 0
    if "--explain" in argv:
        i = argv.index("--explain")
        return explain(argv[i + 1] if i + 1 < len(argv) else None)

    def opt(name, default=None):
        if name in argv:
            i = argv.index(name)
            if i + 1 < len(argv):
                return argv[i + 1]
        return default

    frontend_kind = opt("--frontend", "auto")
    compile_db_arg = opt("--compile-db")
    if "--self-test" in argv:
        return self_test(frontend_kind, compile_db_arg)

    skip_next = False
    paths = []
    for idx, a in enumerate(argv):
        if skip_next:
            skip_next = False
            continue
        if a in ("--frontend", "--compile-db", "--emit-reachable"):
            skip_next = True
            continue
        if a.startswith("-"):
            continue
        paths.append(Path(a))
    file_paths = paths or [REPO_ROOT / d for d in FILE_SCOPES]
    paths = paths or [REPO_ROOT / d for d in GRAPH_SCOPES]

    fe, an = analyze(REPO_ROOT, paths, frontend_kind, compile_db_arg,
                     file_paths)
    roots = sorted(fn.qname for fn in an.functions if fn.is_run_path)

    if "--list-roots" in argv:
        for r in roots:
            print(r)
        return 0

    manifest = an.reachable_manifest()
    emit = opt("--emit-reachable")
    if emit:
        Path(emit).write_text(json.dumps(manifest, indent=2) + "\n")
    if "--write-run-path" in argv:
        RUN_PATH_JSON.write_text(json.dumps(manifest, indent=2) + "\n")
        print(f"tdc_analyze: wrote {RUN_PATH_JSON.relative_to(REPO_ROOT)} "
              f"({len(manifest['files'])} files, "
              f"{len(manifest['functions'])} functions)")
    if "--check-run-path" in argv:
        if not RUN_PATH_JSON.exists():
            print("tdc_analyze: run_path.json missing; run --write-run-path",
                  file=sys.stderr)
            return 1
        committed = json.loads(RUN_PATH_JSON.read_text())
        # Frontends may delimit functions slightly differently; the FILE set
        # is the contract, and it must match exactly.
        if sorted(committed.get("files", [])) != manifest["files"]:
            print("tdc_analyze: run_path.json is stale (file set changed); "
                  "run tools/analyze/tdc_analyze.py --write-run-path and "
                  "commit the result", file=sys.stderr)
            for f in sorted(set(manifest["files"]) -
                            set(committed.get("files", []))):
                print(f"  new run-path file: {f}", file=sys.stderr)
            for f in sorted(set(committed.get("files", [])) -
                            set(manifest["files"])):
                print(f"  no longer reachable: {f}", file=sys.stderr)
            return 1

    if not roots:
        print("tdc_analyze: no TDC_RUN_PATH roots found — annotations "
              "missing?", file=sys.stderr)
        return 2

    for rel, line, rule, message in an.findings:
        print(f"{rel}:{line}: [{rule}] {message}")
    if an.findings:
        print(f"\ntdc_analyze [{fe.name} frontend]: {len(an.findings)} "
              f"finding(s) over {len(an.functions)} functions "
              f"({len(an.reachable)} reachable from {len(roots)} roots). "
              "--explain RULE for the rationale and the rule's escape.")
        return 1
    print(f"tdc_analyze [{fe.name} frontend]: clean — "
          f"{len(an.functions)} functions, {len(an.reachable)} reachable "
          f"from {len(roots)} run-path roots, "
          f"{sum(len(fr.includes) for fr in an.files)} includes checked, "
          f"per-file rules over {', '.join(p.name for p in file_paths)}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        sys.exit(0)
