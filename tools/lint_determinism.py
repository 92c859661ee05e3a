#!/usr/bin/env python3
"""Project determinism lint: ban the nondeterminism bug classes this repo
has already paid for (see README "Static analysis").

The planner's contract is bit-identical results for a fixed seed across
thread counts, pool sizes, and rebuilds — enforced today by equivalence
tests, and from this PR also by construction.  Each rule bans a pattern
that historically breaks that contract:

  banned-random   rand()/srand()/std::random_device/time()/system_clock in
                  src/: unseeded or wall-clock entropy.  All randomness
                  must flow through util/random.h's seeded Rng; timing
                  through util/stopwatch.h (steady_clock).
  unordered-iter  iteration over std::unordered_map/unordered_set:
                  iteration order is libstdc++-version- and hash-seed-
                  dependent, so any output or selection derived from it
                  is nondeterministic.  Keyed lookup is fine; iterate an
                  ordered container (or a sorted index) instead.
  local-static    mutable function-local static state — the exact shape
                  of the PR-7 planes-cache bug (a function-local static
                  mutex shared by unrelated problem instances), and a
                  hidden cross-call coupling even when it happens to be
                  thread-safe.  Prefer a member, or a const/constexpr.
  fp-reduce       floating-point reduction via std::accumulate /
                  std::reduce / std::transform_reduce / OpenMP pragmas
                  outside src/dist/kernels: FP addition is not
                  associative, so reduction order IS the result.  The
                  kernels layer owns the documented first-to-last
                  contract; everything else writes explicit loops or
                  calls the kernels.
  unstable-sort   std::sort called with a comparator: elements the
                  comparator ties come out in an order the standard
                  leaves unspecified (libstdc++ happens to be stable below
                  16 elements, libc++ differs), so a selection or a
                  floating-point sum that depends on it is
                  library-dependent.  Use std::stable_sort, which makes
                  the input order (typically the index) the tie-break.

False positives go in tools/determinism_allowlist.txt, one audited site
per line: `path-glob|rule|line-substring # reason`.  Keep reasons honest;
the allowlist is the audit trail.

Usage:
    tools/lint_determinism.py [ROOTS...]      # lint (default: src)
    tools/lint_determinism.py --self-test     # prove each rule fires
"""

import argparse
import fnmatch
import os
import re
import sys

# ---------------------------------------------------------------------------
# Source preprocessing: blank out comments and string/char literals while
# preserving line structure, so rules never fire inside prose or data.


def strip_comments_and_strings(text):
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if (mode == "string" and c == '"') or (mode == "char" and c == "'"):
                mode = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rules.  Each returns a list of (line_number, message) over the stripped
# text; `path` is repo-relative with forward slashes.

RANDOM_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w_])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
]


def rule_banned_random(path, lines):
    del path
    findings = []
    for lineno, line in enumerate(lines, 1):
        for pattern, what in RANDOM_PATTERNS:
            if pattern.search(line):
                findings.append(
                    (lineno,
                     f"{what}: route randomness through util/random.h (Rng, "
                     "explicit seed) and time through util/stopwatch.h"))
    return findings


UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<.*>>?\s*&?\s*(\w+)\s*(?:;|=|\{|\()")


def rule_unordered_iter(path, lines):
    del path
    # Pass 1: names declared with an unordered type in this file.
    names = set()
    for line in lines:
        for match in UNORDERED_DECL.finditer(line):
            names.add(match.group(1))
    if not names:
        return []
    # Pass 2: range-for or iterator walks over those names.
    findings = []
    alternation = "|".join(sorted(re.escape(n) for n in names))
    range_for = re.compile(r"for\s*\(.*:\s*\*?(?:this->)?(" + alternation
                           + r")\s*\)")
    begin_call = re.compile(r"\b(" + alternation + r")\s*\.\s*c?begin\s*\(")
    for lineno, line in enumerate(lines, 1):
        match = range_for.search(line) or begin_call.search(line)
        if match:
            findings.append(
                (lineno,
                 f"iteration over unordered container '{match.group(1)}': "
                 "order is hash-seed dependent; use an ordered container or "
                 "sort an index first"))
    return findings


LOCAL_STATIC = re.compile(r"^\s+static\s+(?!const\b|constexpr\b|_assert)")
# A declaration whose name is immediately followed by '(' with no '='
# before it is a (member) function declaration, not static data.
FUNCTION_DECL = re.compile(r"^\s+static\s+[\w:<>,\s*&]+?\b\w+\s*\(")


def rule_local_static(path, lines):
    del path
    findings = []
    for lineno, line in enumerate(lines, 1):
        if not LOCAL_STATIC.search(line):
            continue
        if "static_cast" in line or "static_assert" in line:
            continue
        if "=" not in line and FUNCTION_DECL.search(line):
            continue  # static member-function declaration
        findings.append(
            (lineno,
             "mutable static local/member state: hidden cross-call "
             "coupling (the PR-7 planes-bug shape); hoist it to an owning "
             "object or make it const"))
    return findings


FP_REDUCE_PATTERNS = [
    (re.compile(r"\baccumulate\s*\([^;]*?\b\d+\.\d*f?\s*[,)]"),
     "std::accumulate with a floating-point init"),
    (re.compile(r"\b(?:std::)?(?:transform_reduce|reduce)\s*\("),
     "std::reduce/transform_reduce (unspecified evaluation order)"),
    (re.compile(r"#\s*pragma\s+omp"), "OpenMP pragma"),
]
FP_REDUCE_EXEMPT = ("src/dist/kernels.h", "src/dist/kernels.cc")


def rule_fp_reduce(path, lines):
    if path in FP_REDUCE_EXEMPT:
        return []
    findings = []
    for lineno, line in enumerate(lines, 1):
        for pattern, what in FP_REDUCE_PATTERNS:
            if pattern.search(line):
                findings.append(
                    (lineno,
                     f"{what}: FP reduction order is the result — write an "
                     "explicit first-to-last loop or call src/dist/kernels"))
    return findings


SORT_CALL = re.compile(r"\bstd::sort\s*\(")
OPENERS, CLOSERS = "([{", ")]}"


def top_level_args(text, start):
    """Number of top-level arguments of the call whose '(' is at `start`
    (brackets and braces nest, so lambda captures and bodies count as one
    argument)."""
    depth, args = 0, 1
    for i in range(start, len(text)):
        c = text[i]
        if c in OPENERS:
            depth += 1
        elif c in CLOSERS:
            depth -= 1
            if depth == 0:
                return args
        elif c == "," and depth == 1:
            args += 1
    return args


def rule_unstable_sort(path, lines):
    del path
    text = "\n".join(lines)
    findings = []
    for match in SORT_CALL.finditer(text):
        if top_level_args(text, match.end() - 1) >= 3:
            findings.append(
                (text.count("\n", 0, match.start()) + 1,
                 "std::sort with a comparator leaves the order of tied "
                 "elements unspecified; use std::stable_sort so ties keep "
                 "their input order"))
    return findings


RULES = {
    "banned-random": rule_banned_random,
    "unordered-iter": rule_unordered_iter,
    "local-static": rule_local_static,
    "fp-reduce": rule_fp_reduce,
    "unstable-sort": rule_unstable_sort,
}

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")

# ---------------------------------------------------------------------------
# Allowlist: `path-glob|rule|line-substring  # reason` per line.


def load_allowlist(path):
    entries = []
    if not os.path.isfile(path):
        return entries
    with open(path, encoding="utf-8") as handle:
        for raw_line in handle:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("|", 2)
            if len(parts) != 3:
                sys.stderr.write(
                    f"lint_determinism: bad allowlist entry: {raw_line}")
                sys.exit(2)
            entries.append(tuple(part.strip() for part in parts))
    return entries


def allowlisted(entries, path, rule, line_text):
    return any(
        fnmatch.fnmatch(path, glob) and rule == entry_rule
        and substring in line_text
        for glob, entry_rule, substring in entries)


# ---------------------------------------------------------------------------


def lint_text(path, text):
    stripped = strip_comments_and_strings(text)
    lines = stripped.split("\n")
    findings = []
    for rule, fn in RULES.items():
        for lineno, message in fn(path, lines):
            findings.append((path, lineno, rule, message))
    return findings


def lint_tree(roots, allowlist, repo_root):
    findings = []
    for root in roots:
        root_abs = os.path.join(repo_root, root)
        if os.path.isfile(root_abs):
            files = [root_abs]
        else:
            files = []
            for dirpath, _, filenames in os.walk(root_abs):
                for name in filenames:
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        for file_path in sorted(files):
            rel = os.path.relpath(file_path, repo_root).replace(os.sep, "/")
            with open(file_path, encoding="utf-8") as handle:
                text = handle.read()
            raw_lines = text.split("\n")
            for path, lineno, rule, message in lint_text(rel, text):
                line_text = raw_lines[lineno - 1] if lineno <= len(raw_lines) \
                    else ""
                if allowlisted(allowlist, path, rule, line_text):
                    continue
                findings.append((path, lineno, rule, message))
    return findings


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on its fixture and stay quiet on the
# clean one.  Fixtures live here (not on disk) so the lint never scans
# its own counterexamples.

SELF_TEST_FIXTURES = {
    "banned-random": (
        "src/fixture/bad.cc",
        """
        int Jitter() { return rand() % 7; }
        std::mt19937 SeedFromEntropy() { return std::mt19937(std::random_device{}()); }
        long Stamp() { return time(NULL); }
        auto Now() { return std::chrono::system_clock::now(); }
        """,
        4,
    ),
    "unordered-iter": (
        "src/fixture/bad.cc",
        """
        std::unordered_map<int, double> weights_;
        double Sum() {
          double total = 0.0;
          for (const auto& [key, weight] : weights_) total += weight;
          for (auto it = weights_.begin(); it != weights_.end(); ++it) {}
          return total;
        }
        """,
        2,
    ),
    "local-static": (
        "src/fixture/bad.cc",
        """
        const DistPlanes& Planes() {
          static std::mutex planes_mutex;
          static std::shared_ptr<DistPlanes> cache = nullptr;
          return *cache;
        }
        """,
        2,
    ),
    "fp-reduce": (
        "src/fixture/bad.cc",
        """
        double Total(const std::vector<double>& xs) {
          double a = std::accumulate(xs.begin(), xs.end(), 0.0);
          double b = std::reduce(xs.begin(), xs.end());
          #pragma omp parallel for reduction(+:a)
          return a + b;
        }
        """,
        3,
    ),
    "unstable-sort": (
        "src/fixture/bad.cc",
        """
        void Rank(std::vector<int>& order, const std::vector<double>& w) {
          std::sort(order.begin(), order.end(),
                    [&, w](int a, int b) { return w[a] > w[b]; });
          std::sort(order.begin(), order.end(), std::greater<int>());
        }
        """,
        2,
    ),
}

CLEAN_FIXTURE = """
// Comments mentioning rand(), time(NULL), and std::random_device are fine.
const char* kMessage = "calls time() and rand() at runtime";  // in a string
class Engine {
 public:
  static Engine& Global();            // static member function: fine
  static constexpr int kAtoms = 1 << 24;  // constexpr: fine
 private:
  std::unordered_map<uint64_t, double> cache_;  // keyed lookups only: fine
  double Lookup(uint64_t sig) { return cache_[sig]; }
};
int CountAll(const std::vector<int>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0);  // integer reduce: fine
}
void Order(std::vector<int>& ids, const std::vector<double>& w) {
  std::sort(ids.begin(), ids.end());  // natural order, ties identical: fine
  std::stable_sort(ids.begin(), ids.end(),
                   [&](int a, int b) { return w[a] < w[b]; });  // fine
}
double SumAll(const std::vector<double>& xs) {
  double total = 0.0;
  for (double x : xs) total += x;  // explicit first-to-last loop: fine
  return total;
}
"""

KERNELS_FIXTURE = """
double WeightedSum(const double* p, const double* v, int n) {
  return std::accumulate(p, p + n, 0.0);  // exempt inside src/dist/kernels
}
"""


def self_test():
    failures = []
    for rule, (path, fixture, expected) in SELF_TEST_FIXTURES.items():
        hits = [f for f in lint_text(path, fixture) if f[2] == rule]
        if len(hits) != expected:
            failures.append(
                f"rule {rule}: expected {expected} findings on its fixture, "
                f"got {len(hits)}: {hits}")
    clean = lint_text("src/fixture/clean.cc", CLEAN_FIXTURE)
    if clean:
        failures.append(f"clean fixture produced findings: {clean}")
    kernels = lint_text("src/dist/kernels.cc", KERNELS_FIXTURE)
    if kernels:
        failures.append(
            f"kernels exemption failed, got findings: {kernels}")
    if failures:
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}")
        return 1
    print(f"lint_determinism self-test: {len(SELF_TEST_FIXTURES)} rules fire "
          "on their fixtures, clean fixture quiet, kernels exemption holds")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("roots", nargs="*", default=None,
                        help="repo-relative roots to scan (default: src)")
    parser.add_argument("--allowlist",
                        default=os.path.join(os.path.dirname(__file__),
                                             "determinism_allowlist.txt"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    allowlist = load_allowlist(args.allowlist)
    findings = lint_tree(args.roots or ["src"], allowlist, repo_root)
    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s); audited "
              "false positives go in tools/determinism_allowlist.txt")
        return 1
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
