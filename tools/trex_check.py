#!/usr/bin/env python3
"""Project checker for the T-REx tree.

Enforces what the compiler cannot. Each check pins an invariant the
system's core guarantee depends on (bit-identical explanations at any
thread count, replayed across backends) or a convention that keeps the
lock and fingerprint contracts honest:

  unordered-determinism
      A loop over a `std::unordered_map` / `std::unordered_set` must not
      accumulate floating point, append to ordered output declared
      outside the loop, or feed fingerprint/stream sinks. Hash-bucket
      iteration order is not a contract: it differs across standard
      libraries, so any order-sensitive fold over it silently breaks
      cross-backend replay. Commutative integer folds and loop-local
      containers are fine and are not flagged.

  cancel-poll
      A function that receives a `CancelToken` (directly, or as the
      `.cancel` / `.soften` member of an options parameter) must keep
      every loop that calls into repair evaluation responsive: the loop
      body must poll `cancelled()`, mention the token, or hand the token
      to the callee. A sweep loop that evaluates coalitions without a
      poll turns cooperative cancellation into a dead letter.

  layering
      `#include` edges inside src/ must follow the documented layer DAG
      (common → table → dc/data → repair → core → workload → serving).
      An upward include (core including serving, data including repair)
      couples a lower layer to a higher one and is rejected.

  status-discipline
      Every `Status` / `Result<T>`-returning declaration in a src/
      header must carry `[[nodiscard]]`. Call sites are the compiler's
      half: the class-level `[[nodiscard]]` on Status/Result plus
      `-Werror=unused-result` in every TU reject a discarded value
      (pinned by the `discarded_status_rejected` ctest); this check
      keeps the per-API annotations from rotting.

  seed-discipline
      Seeds and RNG state in src/ may derive only from explicit inputs
      (base seed, shard index) — never from `std::this_thread::get_id`,
      wall clocks, or `getpid`. A thread-id-derived seed is bit-identical
      only by accident. Unseeded sources (`std::rand`, `srand`,
      `std::random_device`) are rejected outright.

  fault-site-discipline
      Fault-injection sites stay auditable: production code reaches the
      injector only through TREX_FAULT_INJECT with a literal site name
      unique across src/, and bench/ stays injection-free.

  raw-mutex
      src/ code uses the annotated `trex::Mutex` / `trex::SharedMutex`
      wrappers from common/mutex.h, never the raw standard-library
      primitives, which are invisible to `-Wthread-safety`. Only
      common/mutex.h itself may touch the raw types.

  fingerprint-length-prefix
      A `Mix(x.data(), x.size())` over variable-length bytes must follow
      a mix of the length itself (`Mix(&len, sizeof(len))`) within the
      preceding four lines; otherwise ("ab","c") and ("a","bc") collide.

  sleep-discipline
      Concurrency test fixtures (tests/serving/, the thread-pool test)
      must not synchronize with a bare `sleep_for`: sleeps hide races and
      flake under load. A deliberate sleep carries a suppression.

  test-hook
      No identifier ending in `_for_test`, `ForTest` or `ForTesting` may
      be declared (or used) under src/. Production code has no test-only
      entry points: a test drives the public API, or the hook is a real
      feature with a production name. A test-only override left in src/
      tends to become a second, unreviewed path through the hot code.

Engine
------
One bundled text engine, with no dependency beyond the Python standard
library so the checker runs everywhere ctest runs: a comment/string-
stripping lexer with brace-matched loop and scope tracking and
project-wide declaration maps (unordered-determinism, cancel-poll,
seed derivation). The line-level checks (layering, fault sites,
raw-mutex, length prefixes, sleeps, unseeded sources, header
[[nodiscard]], test hooks) are text by nature. A tree run walks src/ with the
engine and feeds bench/ and tests/ through the line-level checks only.

Suppressions
------------
A finding is suppressed by an inline comment on the same or the
preceding line:

    // trex-check-ok(<check>): <reason>

The suppression itself is linted: an unknown check name or a missing
reason is a finding (check `suppression`) that cannot be suppressed.

Usage
-----
    trex_check.py [--root DIR]
    trex_check.py --self-test
    trex_check.py --list-checks

Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage errors.
"""

import argparse
import os
import re
import sys


# ---------------------------------------------------------------------------
# Shared vocabulary
# ---------------------------------------------------------------------------

CHECKS = (
    "unordered-determinism",
    "cancel-poll",
    "layering",
    "status-discipline",
    "seed-discipline",
    "fault-site-discipline",
    "raw-mutex",
    "fingerprint-length-prefix",
    "sleep-discipline",
    "test-hook",
)

# Layer ranks; an include edge src/<a>/ -> src/<b>/ is legal iff
# rank(a) >= rank(b). dc and data share a rank (sibling domains).
LAYER_RANK = {
    "common": 0,
    "table": 1,
    "dc": 2,
    "data": 2,
    "repair": 3,
    "core": 4,
    "workload": 5,
    "serving": 6,
}

# Calls that enter repair evaluation: one call is a full black-box
# repair run (or many of them), so every loop issuing one must stay
# cancel-responsive.
EVAL_CALLS = (
    "Value",
    "EvalPerturbation",
    "EvalConstraintSubset",
    "Explain",
    "Repair",
)
EVAL_CALL_RE = re.compile(
    r"\b(?:" + "|".join(EVAL_CALLS) + r")\s*\(")

# Any mention of the cancellation channel inside a loop body counts as
# coverage: a poll, a member access, or handing the token onward.
TOKEN_MENTION_RE = re.compile(
    r"\bcancelled\s*\(|\bcancel\b|\bsoften\b|\bstop\b|CancelToken")

# Sources a seed must never be derived from.
TIME_SOURCE_RE = re.compile(
    r"this_thread\s*::\s*get_id|steady_clock\s*::\s*now"
    r"|system_clock\s*::\s*now|high_resolution_clock\s*::\s*now"
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)|\bgetpid\s*\(")
SEEDISH_RE = re.compile(
    r"[Ss]eed|mt19937|minstd_rand|SplitMix|splitmix|\b[Rr]ng\b")

SUPPRESS_RE = re.compile(
    r"//\s*trex-check-ok\(\s*([\w-]+)\s*\)\s*(:?)\s*(.*?)\s*$")

def finding(path, line, check, message):
    return (path, line, check, message)


# ---------------------------------------------------------------------------
# Lexing: blank out comments and string/char literals, preserving line
# structure, so the structural passes never trip on contents.
# ---------------------------------------------------------------------------

def strip_code(text):
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE_C, BLOCK_C, STR, CHR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        two = text[i:i + 2]
        if state == NORMAL:
            if two == "//":
                state = LINE_C
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if two == "/*":
                state = BLOCK_C
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                if i >= 1 and text[i - 1] == "R":
                    m = re.match(r'R"([^(\s"]*)\(', text[i - 1:i + 20])
                    if m:
                        state = RAW
                        raw_delim = ")" + m.group(1) + '"'
                        i += 1
                        continue
                state = STR
                i += 1
                continue
            if c == "'":
                state = CHR
                i += 1
                continue
            i += 1
            continue
        if state == LINE_C:
            if c == "\n":
                state = NORMAL
            elif text[i - 1] == "\\" and c == "\n":
                pass
            else:
                out[i] = " "
            i += 1
            continue
        if state == BLOCK_C:
            if two == "*/":
                out[i] = out[i + 1] = " "
                state = NORMAL
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == STR:
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = NORMAL
            elif c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == CHR:
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == "'":
                state = NORMAL
            elif c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == RAW:
            if text.startswith(raw_delim, i):
                for j in range(len(raw_delim)):
                    out[i + j] = " "
                i += len(raw_delim)
                state = NORMAL
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
    return "".join(out)


def match_delim(code, i, open_c, close_c):
    """Index one past the delimiter closing the one at `i`."""
    depth = 0
    n = len(code)
    while i < n:
        if code[i] == open_c:
            depth += 1
        elif code[i] == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def parse_suppressions(path, raw_text):
    """Returns ({line: set(check)}, [findings for malformed ones])."""
    by_line = {}
    bad = []
    for lineno, line in enumerate(raw_text.splitlines(), 1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        check, colon, reason = m.group(1), m.group(2), m.group(3)
        if check not in CHECKS:
            bad.append(finding(
                path, lineno, "suppression",
                f"trex-check-ok names unknown check '{check}' "
                f"(valid: {', '.join(CHECKS)})"))
            continue
        if colon != ":" or not reason:
            bad.append(finding(
                path, lineno, "suppression",
                f"trex-check-ok({check}) must carry a reason: "
                "'// trex-check-ok(<check>): <why this is safe>'"))
            continue
        by_line.setdefault(lineno, set()).add(check)
    return by_line, bad


def apply_suppressions(findings, by_line):
    kept = []
    for f in findings:
        _, line, check, _ = f
        if check in by_line.get(line, ()) or check in by_line.get(line - 1,
                                                                  ()):
            continue
        kept.append(f)
    return kept


# ---------------------------------------------------------------------------
# Line-level checks (pure text by nature)
# ---------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def check_layering(path, raw_text):
    parts = path.split("/")
    if len(parts) < 3 or parts[0] != "src" or parts[1] not in LAYER_RANK:
        return []
    my_rank = LAYER_RANK[parts[1]]
    out = []
    for lineno, line in enumerate(raw_text.splitlines(), 1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        target = m.group(1).split("/")[0]
        if target in LAYER_RANK and LAYER_RANK[target] > my_rank:
            out.append(finding(
                path, lineno, "layering",
                f"upward include: {parts[1]} (rank {my_rank}) must not "
                f"include {target} (rank {LAYER_RANK[target]}); the layer "
                "order is common → table → dc/data → repair → core → "
                "workload → serving"))
    return out


NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+|friend\s+|explicit\s+|constexpr\s+)*"
    r"(?:trex\s*::\s*)?(?:Status|Result\s*<[^;{}=]*>)\s+"
    r"[A-Za-z_]\w*\s*\(")


def check_status_annotations(path, raw_text):
    """status-discipline: header declarations must be [[nodiscard]].
    Pure text — the attribute is lexical."""
    if not (path.startswith("src/") and path.endswith(".h")):
        return []
    out = []
    code = strip_code(raw_text)
    lines = code.splitlines()
    for i, line in enumerate(lines):
        if "[[nodiscard]]" in line:
            continue
        if not NODISCARD_DECL_RE.match(line):
            continue
        prev = lines[i - 1].rstrip() if i else ""
        if prev.endswith("[[nodiscard]]"):
            continue
        out.append(finding(
            path, i + 1, "status-discipline",
            "Status/Result-returning declaration without [[nodiscard]]; "
            "a droppable error is no error contract at all"))
    return out


# Fault-injection sites (common/fault.h). The named-site registry only
# stays auditable — every schedulable failure greppable, every site
# keyed by exactly one code location — under three rules:
#   * production code reaches the injector only through
#     TREX_FAULT_INJECT (direct FaultInjector use — Arm, counters —
#     belongs to tests and the implementation in common/fault.{h,cc});
#   * site names are string literals, never computed;
#   * a site name appears at exactly one code location (src-wide);
#   * bench/ stays injection-free (a bench number that silently ran
#     under an armed plan is not a benchmark).

FAULT_MACRO_RE = re.compile(r"\bTREX_FAULT_INJECT\s*\(")
FAULT_INJECTOR_RE = re.compile(r"\bFaultInjector\b")
FAULT_EXEMPT = ("src/common/fault.h", "src/common/fault.cc")


def _fault_site_literal(raw_text, open_idx):
    """The string-literal argument of the macro call whose '(' sits at
    `open_idx` in the raw text, or None when the argument is computed."""
    m = re.match(r'\(\s*"((?:[^"\\]|\\.)*)"\s*\)', raw_text[open_idx:])
    return m.group(1) if m else None


def iter_fault_sites(raw_text):
    """Yields (lineno, site_or_None) for every TREX_FAULT_INJECT call,
    located on comment-stripped code so commented-out sites are inert.
    Preprocessor lines are skipped: `#define TREX_FAULT_INJECT(...)` is
    the macro's declaration, not a site."""
    code = strip_code(raw_text)
    for m in FAULT_MACRO_RE.finditer(code):
        line_start = code.rfind("\n", 0, m.start()) + 1
        if code[line_start:m.start()].lstrip().startswith("#"):
            continue
        yield line_of(code, m.start()), _fault_site_literal(raw_text,
                                                            m.end() - 1)


def check_fault_sites(path, raw_text):
    """Per-file half of fault-site-discipline; the cross-file site-name
    uniqueness half lives in check_fault_site_uniqueness."""
    out = []
    if path.startswith("bench/"):
        for lineno, _ in iter_fault_sites(raw_text):
            out.append(finding(
                path, lineno, "fault-site-discipline",
                "TREX_FAULT_INJECT in bench/: benchmark numbers must "
                "never depend on an armed fault plan; drive faults "
                "through a FaultyAlgorithm schedule instead"))
        return out
    if not path.startswith("src/") or path in FAULT_EXEMPT:
        return []
    code = strip_code(raw_text)
    for m in FAULT_INJECTOR_RE.finditer(code):
        out.append(finding(
            path, line_of(code, m.start()), "fault-site-discipline",
            "direct FaultInjector use outside common/fault.{h,cc}; "
            "production code declares sites with TREX_FAULT_INJECT only "
            "(arming plans and reading counters belong to tests)"))
    seen = {}
    for lineno, site in iter_fault_sites(raw_text):
        if site is None:
            out.append(finding(
                path, lineno, "fault-site-discipline",
                "TREX_FAULT_INJECT site name must be a string literal; "
                "a computed name cannot be grepped, scheduled, or "
                "audited"))
        elif site in seen:
            out.append(finding(
                path, lineno, "fault-site-discipline",
                f'duplicate fault site "{site}" (first declared at line '
                f"{seen[site]}); sites are keyed by name, so a reused "
                "name makes two code paths share one schedule and one "
                "hit counter"))
        else:
            seen[site] = lineno
    return out


def check_fault_site_uniqueness(files):
    """Cross-file half: one site name, one code location, src-wide.
    Same-file duplicates are skipped here — check_fault_sites already
    reported them."""
    seen = {}
    out = []
    for rel, text in files:
        if not rel.startswith("src/") or rel in FAULT_EXEMPT:
            continue
        for lineno, site in iter_fault_sites(text):
            if site is None:
                continue
            if site in seen and seen[site][0] != rel:
                first = seen[site]
                out.append(finding(
                    rel, lineno, "fault-site-discipline",
                    f'duplicate fault site "{site}" (first declared at '
                    f"{first[0]}:{first[1]}); sites are keyed by name, "
                    "so a reused name makes two code paths share one "
                    "schedule and one hit counter"))
            elif site not in seen:
                seen[site] = (rel, lineno)
    return out


RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_)?mutex\b"
    r"|std::shared_(?:timed_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")
MUTEX_HEADER = "src/common/mutex.h"

UNSEEDED_RANDOM_RE = re.compile(
    r"std::rand\b|\bsrand\s*\(|\brandom_device\b")

MIX_BYTES_RE = re.compile(
    r"Mix\w*\(\s*([A-Za-z_][\w.\->()\[\]]*?)\.data\(\)\s*,\s*"
    r"\1\.size\(\)\s*\)")
MIX_LENGTH_RE = re.compile(r"Mix\w*\(\s*&\w+\s*,\s*sizeof\b")
LENGTH_PREFIX_WINDOW = 4  # lines preceding the bytes-mix to search

SLEEP_RE = re.compile(r"\bsleep_for\s*\(")

TEST_HOOK_RE = re.compile(r"\b\w+(?:_for_test|ForTest|ForTesting)\b")


def _matching_lines(raw_text, rx):
    """Line numbers whose comment/string-stripped code matches `rx`."""
    return [i for i, line in enumerate(strip_code(raw_text).splitlines(), 1)
            if rx.search(line)]


def check_raw_mutex(path, raw_text):
    if not path.startswith("src/") or path == MUTEX_HEADER:
        return []
    return [finding(path, lineno, "raw-mutex",
                    "raw standard-library mutex primitive; use the "
                    "annotated wrappers from common/mutex.h")
            for lineno in _matching_lines(raw_text, RAW_MUTEX_RE)]


def check_unseeded_random(path, raw_text):
    """The unseeded-source half of seed-discipline."""
    if not path.startswith("src/"):
        return []
    return [finding(path, lineno, "seed-discipline",
                    "unseeded randomness source; results must replay "
                    "deterministically — take an explicit seed")
            for lineno in _matching_lines(raw_text, UNSEEDED_RANDOM_RE)]


def check_length_prefix(path, raw_text):
    if not path.startswith("src/"):
        return []
    lines = strip_code(raw_text).splitlines()
    out = []
    for i, line in enumerate(lines):
        if not MIX_BYTES_RE.search(line):
            continue
        window = lines[max(0, i - LENGTH_PREFIX_WINDOW):i]
        if any(MIX_LENGTH_RE.search(w) for w in window):
            continue
        out.append(finding(
            path, i + 1, "fingerprint-length-prefix",
            "variable-length bytes mixed into a fingerprint without a "
            "preceding length mix; mix the length first"))
    return out


def check_sleep(path, raw_text):
    if not (path.startswith("tests/serving/")
            or path == "tests/common/thread_pool_test.cc"):
        return []
    return [finding(path, lineno, "sleep-discipline",
                    "bare sleep_for in a concurrency fixture; synchronize "
                    "with gates/latches")
            for lineno in _matching_lines(raw_text, SLEEP_RE)]


def check_test_hook(path, raw_text):
    if not path.startswith("src/"):
        return []
    return [finding(path, lineno, "test-hook",
                    "test-only entry point in src/; drive the public API "
                    "from the test instead")
            for lineno in _matching_lines(raw_text, TEST_HOOK_RE)]


# Each scopes itself by path, so every file of every walked tree can be
# fed through all of them.
TEXT_CHECKS = (
    check_layering,
    check_status_annotations,
    check_fault_sites,
    check_raw_mutex,
    check_unseeded_random,
    check_length_prefix,
    check_sleep,
    check_test_hook,
)


def text_checks(path, raw_text):
    """The line-level checks (pure text by nature)."""
    out = []
    for check in TEXT_CHECKS:
        out.extend(check(path, raw_text))
    return out


# ---------------------------------------------------------------------------
# Text engine: lexer + scope tracking
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"unordered_(?:map|set)\s*<")
ORDERED_DECL_RE = re.compile(r"(?<![\w_])(?:map|set|vector|deque)\s*<")
USING_UNORDERED_RE = re.compile(
    r"using\s+(\w+)\s*=\s*(?:std\s*::\s*)?unordered_(?:map|set)\s*<")


def _decl_name_after_template(code, open_idx):
    """Given index of '<' in a container type, returns the declared
    variable name following the closing '>' (or None)."""
    end = match_delim(code, open_idx, "<", ">")
    m = re.match(r"\s*(?:&|\*)?\s*(\w+)", code[end:end + 160])
    if not m:
        return None
    name = m.group(1)
    if name in ("const", "GUARDED_BY", "ABSL_GUARDED_BY"):
        m2 = re.match(r"\s*(?:&|\*)?\s*\w+\s*(?:\([^)]*\)\s*)?(\w+)",
                      code[end:end + 200])
        return m2.group(1) if m2 else None
    return name


def collect_container_names(code):
    """Names declared with unordered / ordered container types in one
    file's code."""
    unordered, ordered = set(), set()
    aliases = set()
    for m in USING_UNORDERED_RE.finditer(code):
        aliases.add(m.group(1))
    for m in UNORDERED_DECL_RE.finditer(code):
        name = _decl_name_after_template(code, m.end() - 1)
        if name:
            unordered.add(name)
    for alias in aliases:
        for dm in re.finditer(r"\b" + re.escape(alias) + r"\s+(\w+)\s*[;={(]",
                              code):
            unordered.add(dm.group(1))
    for m in ORDERED_DECL_RE.finditer(code):
        name = _decl_name_after_template(code, m.end() - 1)
        if name:
            ordered.add(name)
    return unordered, ordered


FLOAT_DECL_RE = re.compile(
    r"\b(?:double|float|long\s+double)\s+(?:\*|&)?\s*(\w+)")
FLOAT_VEC_DECL_RE = re.compile(
    r"vector\s*<\s*(?:double|float|long\s+double)\s*>\s*(?:&|\*)?\s*(\w+)")
STREAM_DECL_RE = re.compile(
    r"\b(?:o?stringstream|ostream|ofstream)\s*&?\s*(\w+)")


def collect_float_names(code):
    names = set(m.group(1) for m in FLOAT_DECL_RE.finditer(code))
    names |= set(m.group(1) for m in FLOAT_VEC_DECL_RE.finditer(code))
    return names


RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
COMPOUND_ASSIGN_RE = re.compile(r"\b(\w+)(?:\[[^\]]*\])?\s*[+\-*/]=[^=]")
APPEND_RE = re.compile(r"\b(\w+)\s*\.\s*(?:push_back|emplace_back|append)"
                       r"\s*\(")
FINGERPRINT_RE = re.compile(r"\.\s*Mix\w*\s*\(|Fingerprint\s*\("
                            r"|HashCombine\s*\(")
STREAM_WRITE_RE = re.compile(r"\b(\w+)\s*<<")


def iter_loops(code):
    """Yields (kind, head_start, head, body_start, body) for every
    for/while loop, bodies brace-matched (or single statement)."""
    for m in re.finditer(r"\b(for|while)\s*\(", code):
        kind = m.group(1)
        head_open = m.end() - 1
        head_close = match_delim(code, head_open, "(", ")")
        head = code[head_open:head_close]
        j = head_close
        n = len(code)
        while j < n and code[j] in " \t\n":
            j += 1
        if j < n and code[j] == "{":
            body_end = match_delim(code, j, "{", "}")
            yield kind, m.start(), head, j, code[j:body_end]
        elif j < n and code[j] == ";":
            continue  # do-while tail or empty body
        else:
            end = code.find(";", j)
            end = n if end < 0 else end + 1
            yield kind, m.start(), head, j, code[j:end]


def range_for_target(head):
    """Tail identifier of the range expression of `for (decl : expr)`,
    or None when not a range-for."""
    depth = 0
    for i, c in enumerate(head):
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c == ":" and depth == 1:
            if i + 1 < len(head) and head[i + 1] == ":":
                continue
            if i > 0 and head[i - 1] == ":":
                continue
            expr = head[i + 1:-1].strip()
            m = re.search(r"([A-Za-z_]\w*)\s*(?:\(\s*\))?$", expr)
            return m.group(1) if m else None
    return None


def declared_inside(name, body):
    """True when `name` is declared within the loop body (loop-local
    containers are order-independent by construction)."""
    return re.search(r"[\w>\]]\s*&?\s+" + re.escape(name) + r"\s*[;={(]",
                     body) is not None


class TextEngine:
    """Lexer-based engine (see file comment)."""

    def __init__(self):
        # Project-wide container-name maps, filled by prepare() for
        # tree runs; single-file runs (self-test) use file-local names.
        self.project_unordered = set()
        self.project_ambiguous = set()

    def prepare(self, files):
        unordered, ordered = set(), set()
        for _, text in files:
            u, o = collect_container_names(strip_code(text))
            unordered |= u
            ordered |= o
        self.project_unordered = unordered
        self.project_ambiguous = unordered & ordered

    def lint_file(self, path, raw_text):
        out = []
        code = strip_code(raw_text)
        out.extend(text_checks(path, raw_text))
        if path.startswith("src/"):
            out.extend(self._check_unordered(path, raw_text, code))
            out.extend(self._check_cancel_poll(path, raw_text, code))
            out.extend(self._check_seed(path, raw_text, code))
        return out

    # -- unordered-determinism ------------------------------------------

    def _check_unordered(self, path, raw_text, code):
        local_u, local_o = collect_container_names(code)
        unordered = local_u | self.project_unordered
        # A name is ambiguous when some *other* file declares it with an
        # ordered container (cross-file name collision, e.g. `counts_`);
        # a local unordered declaration wins for this file. A name both
        # ordered and unordered within this same file stays ambiguous.
        ambiguous = (self.project_ambiguous - local_u) | (local_u & local_o)
        floats = collect_float_names(code)
        streams = set(m.group(1) for m in STREAM_DECL_RE.finditer(code))
        streams |= {"cout", "cerr", "os", "out_stream"}
        out = []
        for _, start, head, _, body in iter_loops(code):
            target = range_for_target(head)
            if target is None or target not in unordered:
                continue
            if target in ambiguous:
                continue  # name also declared ordered somewhere: unresolvable
            lineno = line_of(code, start)
            msg = None
            for m in COMPOUND_ASSIGN_RE.finditer(body):
                if m.group(1) in floats:
                    msg = (f"floating-point accumulation into "
                           f"'{m.group(1)}' under unordered iteration "
                           f"over '{target}' — float addition is not "
                           "commutative-associative, the result depends "
                           "on bucket order")
                    break
            if msg is None:
                for m in APPEND_RE.finditer(body):
                    tgt = m.group(1)
                    if not declared_inside(tgt, body):
                        msg = (f"appending to ordered container "
                               f"'{tgt}' in unordered iteration order "
                               f"over '{target}' — sort the keys or keep "
                               "an ordered mirror")
                        break
            if msg is None and FINGERPRINT_RE.search(body):
                msg = (f"fingerprint/hash material fed in unordered "
                       f"iteration order over '{target}' — use an "
                       "order-independent combine (XOR) or sort first")
            if msg is None:
                for m in STREAM_WRITE_RE.finditer(body):
                    if m.group(1) in streams:
                        msg = (f"stream output written in unordered "
                               f"iteration order over '{target}' — JSON/"
                               "log lines must be deterministic")
                        break
            if msg:
                out.append(finding(path, lineno, "unordered-determinism",
                                   msg))
        return out

    # -- cancel-poll ----------------------------------------------------

    def _check_cancel_poll(self, path, raw_text, code):
        # Scope approximation: a file that takes cancellation as input
        # (a CancelToken/StopRule parameter, or options .cancel/.soften
        # access) must keep every eval loop responsive. A mere type
        # definition or forward declaration does not count.
        threads_token = (
            re.search(r"(?:CancelToken|StopRule)\s*&?\s+\w+\s*[,)=]", code)
            or ".cancel" in code or ".soften" in code)
        if not threads_token:
            return []
        out = []
        for _, start, head, _, body in iter_loops(code):
            if not EVAL_CALL_RE.search(body):
                continue
            if TOKEN_MENTION_RE.search(body) or TOKEN_MENTION_RE.search(head):
                continue
            out.append(finding(
                path, line_of(code, start), "cancel-poll",
                "loop calls into repair evaluation without polling or "
                "forwarding a CancelToken; cancellation/deadlines cannot "
                "reach this work"))
        return out

    # -- seed-discipline ------------------------------------------------

    def _check_seed(self, path, raw_text, code):
        out = []
        # Statement granularity: chunks between ; { } at any nesting.
        for chunk_m in re.finditer(r"[^;{}]+", code):
            chunk = chunk_m.group(0)
            if TIME_SOURCE_RE.search(chunk) and SEEDISH_RE.search(chunk):
                out.append(finding(
                    path, line_of(code, chunk_m.start()
                                  + len(chunk) - len(chunk.lstrip())),
                    "seed-discipline",
                    "seed/RNG derived from thread id or wall clock; "
                    "per-shard seeds may mix only (base seed, shard "
                    "index) so replays are bit-identical"))
        return out


# ---------------------------------------------------------------------------
# Tree runner
# ---------------------------------------------------------------------------

def collect_files(root, top):
    """(repo-relative path, text) of every .h/.cc file under root/top."""
    out = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, encoding="utf-8") as f:
                out.append((rel, f.read()))
    return out


def lint_tree(root):
    files = collect_files(root, "src")
    engine = TextEngine()
    engine.prepare(files)
    out = []
    for rel, text in files:
        raw = engine.lint_file(rel, text)
        by_line, bad = parse_suppressions(rel, text)
        out.extend(bad)
        out.extend(apply_suppressions(raw, by_line))
    # fault-site-discipline spans files: site names must be unique
    # src-wide. bench/ (which must stay injection-free) and tests/ (whose
    # concurrency fixtures must not sleep) get the text checks only.
    out.extend(check_fault_site_uniqueness(files))
    for rel, text in collect_files(root, "bench") + collect_files(root,
                                                                  "tests"):
        by_line, bad = parse_suppressions(rel, text)
        out.extend(bad)
        out.extend(apply_suppressions(text_checks(rel, text), by_line))
    return out


def lint_snippet(path, text):
    """Self-test entry: one in-memory file, suppressions applied."""
    engine = TextEngine()
    engine.prepare([(path, text)])
    raw = engine.lint_file(path, text)
    by_line, bad = parse_suppressions(path, text)
    return bad + apply_suppressions(raw, by_line)


# ---------------------------------------------------------------------------
# Self-test fixtures. Every check is fed known-bad and known-good
# snippets, and the self-test fails if a bad snippet passes or a good one
# is flagged, so a regression in this file cannot silently disable a
# check. The preamble declares the few std/trex names the snippets use,
# so each snippet reads as a self-contained translation unit.
# ---------------------------------------------------------------------------


class FixtureCase:
    """One self-test case.

    check     the check the case exercises; only findings with this name
              are counted (other checks may fire on the same snippet).
    path      the fake repo-relative path the snippet lives at (path
              scoping — src/ vs tests/, layer membership — is under test).
    snippet   the file content.
    expected  the exact number of findings the check must produce.
    """

    def __init__(self, check, path, snippet, expected):
        self.check = check
        self.path = path
        self.snippet = snippet
        self.expected = expected


def run_fixture_cases(cases, lint_file_fn):
    """Runs every case through `lint_file_fn(path, snippet)`; returns 0
    when each produced exactly its expected count, 1 otherwise (one
    diagnostic per failing case)."""
    failures = []
    for case in cases:
        got = [f for f in lint_file_fn(case.path, case.snippet)
               if f[2] == case.check]
        if len(got) != case.expected:
            failures.append(
                f"{case.check} on {case.path}: expected {case.expected} "
                f"finding(s), got {len(got)}: "
                f"{[(f[1], f[3][:60]) for f in got]}")
    for f in failures:
        print(f"SELF-TEST FAIL [trex_check]: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"trex_check self-test: {len(cases)} cases passed")
    return 0


PREAMBLE = r"""
namespace std {
typedef unsigned long size_t;
template <class A, class B> struct pair { A first; B second; };
template <class K, class V, class H = int> struct unordered_map {
  typedef pair<const K, V> value_type;
  value_type* begin() const;
  value_type* end() const;
};
template <class K, class H = int> struct unordered_set {
  const K* begin() const;
  const K* end() const;
};
template <class K, class V> struct map {
  typedef pair<const K, V> value_type;
  value_type* begin() const;
  value_type* end() const;
};
template <class T> struct vector {
  void push_back(const T&);
  T* begin() const;
  T* end() const;
  size_t size() const;
};
struct string { void append(const char*); };
struct ostream { };
ostream& operator<<(ostream&, double);
struct mt19937 { mt19937(unsigned long long); };
namespace chrono {
struct steady_clock {
  struct time_point { long long time_since_epoch_count; };
  static time_point now();
};
}
namespace this_thread { int get_id(); }
}
namespace trex {
class CancelToken {
 public:
  bool cancelled() const;
};
class Status {
 public:
  bool ok() const;
  [[nodiscard]] static Status Ok();
};
template <class T> class Result {
 public:
  bool ok() const;
};
struct Game {
  double Value(int coalition) const;
};
struct Hasher { void Mix(const void*, std::size_t); };
}
using namespace trex;
"""

BAD_FLOAT_FOLD = PREAMBLE + r"""
double Sum(const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  for (const auto& kv : weights) {
    total += kv.second;
  }
  return total;
}
"""

GOOD_INT_FOLD = PREAMBLE + r"""
int Count(const std::unordered_map<int, int>& counts) {
  int total = 0;
  for (const auto& kv : counts) {
    total += kv.second;
  }
  return total;
}
"""

BAD_ORDERED_APPEND = PREAMBLE + r"""
void Keys(const std::unordered_set<int>& seen, std::vector<int>& out) {
  for (const auto& key : seen) {
    out.push_back(key);
  }
}
"""

GOOD_LOCAL_APPEND = PREAMBLE + r"""
void Probe(const std::unordered_map<int, int>& index) {
  for (const auto& kv : index) {
    std::vector<int> scratch;
    scratch.push_back(kv.second);
  }
}
"""

GOOD_ORDERED_MAP = PREAMBLE + r"""
double Sum(const std::map<int, double>& weights) {
  double total = 0.0;
  for (const auto& kv : weights) {
    total += kv.second;
  }
  return total;
}
"""

SUPPRESSED_FLOAT_FOLD = PREAMBLE + r"""
double Sum(const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  // trex-check-ok(unordered-determinism): values are all exact powers of two
  for (const auto& kv : weights) {
    total += kv.second;
  }
  return total;
}
"""

BAD_SUPPRESSION_NO_REASON = PREAMBLE + r"""
double Sum(const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  // trex-check-ok(unordered-determinism):
  for (const auto& kv : weights) {
    total += kv.second;
  }
  return total;
}
"""

BAD_SUPPRESSION_UNKNOWN = PREAMBLE + r"""
int x;  // trex-check-ok(made-up-check): whatever
"""

BAD_NO_POLL = PREAMBLE + r"""
double SweepAll(const Game& game, CancelToken token) {
  double total = 0.0;
  for (int i = 0; i < 100; ++i) {
    total += game.Value(i);
  }
  return total;
}
"""

GOOD_POLLED = PREAMBLE + r"""
double SweepAll(const Game& game, CancelToken token) {
  double total = 0.0;
  for (int i = 0; i < 100; ++i) {
    if (token.cancelled()) break;
    total += game.Value(i);
  }
  return total;
}
"""

GOOD_FORWARDED = PREAMBLE + r"""
double RunShard(const Game& game, CancelToken token);
double SweepAll(const Game& game, CancelToken token) {
  double total = 0.0;
  for (int shard = 0; shard < 4; ++shard) {
    total += RunShard(game, token);
  }
  return total;
}
"""

GOOD_NO_TOKEN_FN = PREAMBLE + r"""
double SweepAll(const Game& game) {
  double total = 0.0;
  for (int i = 0; i < 100; ++i) {
    total += game.Value(i);
  }
  return total;
}
"""

BAD_UPWARD_INCLUDE = """\
#include "serving/service.h"
#include "common/status.h"
"""

GOOD_DOWNWARD_INCLUDE = """\
#include "core/engine.h"
#include "common/status.h"
"""

BAD_MISSING_NODISCARD = PREAMBLE + r"""
namespace trex {
class Writer {
 public:
  Status Flush();
  [[nodiscard]] Status Sync();
};
}
"""

GOOD_NODISCARD_PREV_LINE = PREAMBLE + r"""
namespace trex {
class Writer {
 public:
  [[nodiscard]]
  Status Flush();
};
}
"""

GOOD_HANDLED_CALL = PREAMBLE + r"""
namespace trex {
Status Flush();
void Tick() {
  Status s = Flush();
  (void)s;
}
}
"""

BAD_CLOCK_SEED = PREAMBLE + r"""
void Init() {
  std::mt19937 rng(
      std::chrono::steady_clock::now().time_since_epoch_count);
}
"""

BAD_THREAD_SEED = PREAMBLE + r"""
unsigned long long DeriveSeed(unsigned long long base) {
  unsigned long long seed = base ^ std::this_thread::get_id();
  return seed;
}
"""

GOOD_SHARD_SEED = PREAMBLE + r"""
unsigned long long DeriveSeed(unsigned long long base, int shard) {
  unsigned long long seed = base + static_cast<unsigned long long>(shard);
  return seed;
}
"""

FAULT_PREAMBLE = PREAMBLE + r"""
#define TREX_FAULT_INJECT(site) (void)(site)
"""

GOOD_FAULT_SITE = FAULT_PREAMBLE + r"""
namespace trex {
Status CallBackend() {
  TREX_FAULT_INJECT("repair.fixture_backend");
  return Status::Ok();
}
}
"""

BAD_FAULT_DIRECT_INJECTOR = FAULT_PREAMBLE + r"""
namespace trex {
void Touch() {
  fault::FaultInjector::Instance();
}
}
"""

BAD_FAULT_COMPUTED_SITE = FAULT_PREAMBLE + r"""
namespace trex {
Status CallBackend(const char* site) {
  TREX_FAULT_INJECT(site);
  return Status::Ok();
}
}
"""

BAD_FAULT_DUPLICATE_SITE = FAULT_PREAMBLE + r"""
namespace trex {
Status First() {
  TREX_FAULT_INJECT("repair.fixture_dup");
  return Status::Ok();
}
Status Second() {
  TREX_FAULT_INJECT("repair.fixture_dup");
  return Status::Ok();
}
}
"""

GOOD_FAULT_COMMENTED_SITE = FAULT_PREAMBLE + r"""
namespace trex {
Status CallBackend() {
  // TREX_FAULT_INJECT("repair.fixture_commented");
  TREX_FAULT_INJECT("repair.fixture_live");
  return Status::Ok();
}
}
"""

BAD_FAULT_IN_BENCH = FAULT_PREAMBLE + r"""
namespace trex {
Status Measure() {
  TREX_FAULT_INJECT("bench.fixture_site");
  return Status::Ok();
}
}
"""

SELF_TEST_CASES = [
    FixtureCase("unordered-determinism", "src/core/bad_fold.cc",
                BAD_FLOAT_FOLD, 1),
    FixtureCase("unordered-determinism", "src/core/good_fold.cc",
                GOOD_INT_FOLD, 0),
    FixtureCase("unordered-determinism", "src/core/bad_append.cc",
                BAD_ORDERED_APPEND, 1),
    FixtureCase("unordered-determinism", "src/core/good_local.cc",
                GOOD_LOCAL_APPEND, 0),
    FixtureCase("unordered-determinism", "src/core/good_map.cc",
                GOOD_ORDERED_MAP, 0),
    FixtureCase("unordered-determinism", "src/core/suppressed.cc",
                SUPPRESSED_FLOAT_FOLD, 0),
    FixtureCase("suppression", "src/core/suppressed.cc",
                SUPPRESSED_FLOAT_FOLD, 0),
    FixtureCase("suppression", "src/core/bad_reason.cc",
                BAD_SUPPRESSION_NO_REASON, 1),
    # With the malformed suppression rejected, the underlying finding
    # must resurface rather than being silently eaten.
    FixtureCase("unordered-determinism", "src/core/bad_reason.cc",
                BAD_SUPPRESSION_NO_REASON, 1),
    FixtureCase("suppression", "src/core/bad_unknown.cc",
                BAD_SUPPRESSION_UNKNOWN, 1),

    FixtureCase("cancel-poll", "src/core/bad_no_poll.cc", BAD_NO_POLL, 1),
    FixtureCase("cancel-poll", "src/core/good_polled.cc", GOOD_POLLED, 0),
    FixtureCase("cancel-poll", "src/core/good_forwarded.cc",
                GOOD_FORWARDED, 0),
    FixtureCase("cancel-poll", "src/core/good_no_token.cc",
                GOOD_NO_TOKEN_FN, 0),

    FixtureCase("layering", "src/core/bad_upward.h", BAD_UPWARD_INCLUDE, 1),
    FixtureCase("layering", "src/serving/good_downward.h",
                GOOD_DOWNWARD_INCLUDE, 0),
    FixtureCase("layering", "tests/core/exempt_test.cc",
                BAD_UPWARD_INCLUDE, 0),

    FixtureCase("status-discipline", "src/table/bad_writer.h",
                BAD_MISSING_NODISCARD, 1),
    FixtureCase("status-discipline", "src/table/good_writer.h",
                GOOD_NODISCARD_PREV_LINE, 0),
    # A handled call is never flagged. A discarded one is the compiler's
    # to reject (tests/tools/discarded_status.cc).
    FixtureCase("status-discipline", "src/table/good_discard.cc",
                GOOD_HANDLED_CALL, 0),

    FixtureCase("seed-discipline", "src/core/bad_clock_seed.cc",
                BAD_CLOCK_SEED, 1),
    FixtureCase("seed-discipline", "src/core/bad_thread_seed.cc",
                BAD_THREAD_SEED, 1),
    FixtureCase("seed-discipline", "src/core/good_shard_seed.cc",
                GOOD_SHARD_SEED, 0),

    FixtureCase("fault-site-discipline", "src/repair/good_site.cc",
                GOOD_FAULT_SITE, 0),
    FixtureCase("fault-site-discipline", "src/repair/bad_direct.cc",
                BAD_FAULT_DIRECT_INJECTOR, 1),
    FixtureCase("fault-site-discipline", "src/repair/bad_computed.cc",
                BAD_FAULT_COMPUTED_SITE, 1),
    FixtureCase("fault-site-discipline", "src/repair/bad_dup.cc",
                BAD_FAULT_DUPLICATE_SITE, 1),
    FixtureCase("fault-site-discipline", "src/repair/good_commented.cc",
                GOOD_FAULT_COMMENTED_SITE, 0),
    FixtureCase("fault-site-discipline", "bench/bad_bench_site.cc",
                BAD_FAULT_IN_BENCH, 1),
    # Tests arm plans and read counters by design: the direct-use rule
    # must not reach outside src/.
    FixtureCase("fault-site-discipline", "tests/common/arms_plans_test.cc",
                BAD_FAULT_DIRECT_INJECTOR, 0),

    FixtureCase("raw-mutex", "src/serving/bad.cc",
                "std::mutex mu;\n"
                "std::lock_guard<std::mutex> g(mu);\n", 2),
    FixtureCase("raw-mutex", "src/serving/bad_include.cc",
                "#include <condition_variable>\n", 1),
    FixtureCase("raw-mutex", "src/serving/good.cc",
                "Mutex mu;\nMutexLock lock(mu);\n", 0),
    FixtureCase("raw-mutex", "src/common/mutex.h",  # the one exempted file
                "std::mutex raw_;\n", 0),
    FixtureCase("raw-mutex", "src/serving/suppressed.cc",
                "std::mutex mu;  // trex-check-ok(raw-mutex): interop with "
                "an external API\n", 0),

    FixtureCase("seed-discipline", "src/repair/bad_unseeded.cc",
                "int x = std::rand();\n"
                "std::random_device rd;\n", 2),
    FixtureCase("seed-discipline", "src/repair/good_seeded.cc",
                "std::mt19937_64 rng(options.seed);\n", 0),

    FixtureCase("fingerprint-length-prefix", "src/table/bad.cc",
                "void F(Hasher* h, const std::string& s) {\n"
                "  h->Mix(s.data(), s.size());\n"
                "}\n", 1),
    FixtureCase("fingerprint-length-prefix", "src/table/good.cc",
                "void F(Hasher* h, const std::string& s) {\n"
                "  const std::uint64_t length = s.size();\n"
                "  h->Mix(&length, sizeof(length));\n"
                "  h->Mix(s.data(), s.size());\n"
                "}\n", 0),
    FixtureCase("fingerprint-length-prefix", "src/table/far.cc",
                "void F(Hasher* h, const std::string& s) {\n"
                "  const std::uint64_t length = s.size();\n"
                "  h->Mix(&length, sizeof(length));\n"
                "  int a;\n  int b;\n  int c;\n  int d;\n"
                "  h->Mix(s.data(), s.size());\n"
                "}\n", 1),  # length mix outside the window doesn't count

    FixtureCase("sleep-discipline", "tests/serving/bad_test.cc",
                "std::this_thread::sleep_for("
                "std::chrono::milliseconds(50));\n", 1),
    FixtureCase("sleep-discipline", "tests/serving/good_test.cc",
                "// trex-check-ok(sleep-discipline): simulates a slow "
                "algorithm, not a sync point\n"
                "std::this_thread::sleep_for(pad_);\n", 0),
    FixtureCase("sleep-discipline", "tests/table/elsewhere_test.cc",
                "std::this_thread::sleep_for("
                "std::chrono::milliseconds(1));\n", 0),

    FixtureCase("test-hook", "src/core/bad_hook.h",
                "class Box {\n"
                " public:\n"
                "  void set_fingerprint_fn_for_test(Fn fn);\n"
                "  static Box MakeForTest();\n"
                "  int CountForTesting() const;\n"
                "};\n", 3),
    FixtureCase("test-hook", "src/core/good_hook.h",
                "// Tests call set_fn_for_test() through the public API.\n"
                "class Box {\n"
                " public:\n"
                "  void set_cache_enabled(bool enabled);\n"
                "  bool ForTestingPurposes() const;\n"
                "  const char* name = \"MakeForTest\";\n"
                "};\n", 0),
    FixtureCase("test-hook", "tests/core/helper_test.cc",
                "Box MakeBoxForTest();\n", 0),
    FixtureCase("test-hook", "src/core/suppressed_hook.h",
                "// trex-check-ok(test-hook): mirrors an external API name\n"
                "void ResetForTesting();\n", 0),
]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded fixture self-test and exit")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args()

    if args.list_checks:
        for c in CHECKS:
            print(c)
        return 0

    if args.self_test:
        return run_fixture_cases(SELF_TEST_CASES, lint_snippet)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = lint_tree(root)
    findings.sort()
    for path, line, check, msg in findings:
        print(f"{path}:{line}: [{check}] {msg}")
    if findings:
        print(f"trex_check: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("trex_check: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
