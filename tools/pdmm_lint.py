#!/usr/bin/env python3
"""pdmm_lint: repo-specific lint rules clang-tidy cannot express.

Rules (each can be waived per-site, see WAIVERS below):

  naked-parse        C/C++ string->number conversions (strtol/atoi/stoi/...)
                     outside src/util/parse_num.h. Those functions accept
                     whitespace/sign prefixes and silently stop at the first
                     bad character; every user-input surface must go through
                     the strict helpers so typos fail loudly.

  mo-comment         Every explicit std::memory_order argument must carry a
                     `// mo:` justification comment on the same line or
                     within the 6 preceding lines. The comment states the
                     pairing (what release pairs with what acquire) or why
                     relaxed is safe (phase barrier, metric, monotone race).

  assert-recoverable PDMM_ASSERT / PDMM_ASSERT_MSG in recoverable-error
                     surfaces (src/persist/, src/workload/trace*, and the
                     snapshot loader src/core/snapshot.cpp). Those layers
                     parse external bytes; corruption must surface as an
                     error return, never a process abort.

  raw-alloc          `new` / malloc-family calls outside the designated
                     container/arena files. Everything else uses standard
                     containers or the scratch arena, so ownership bugs
                     stay impossible by construction.

  tsa-rationale      Every PDMM_NO_THREAD_SAFETY_ANALYSIS must carry a
                     `// tsa:` comment within the 10 preceding lines giving
                     the happens-before argument the analysis cannot see.

  raw-sleep          sleep_for / sleep_until / usleep / nanosleep outside
                     src/util/backoff.h. Retry/poll waits go through
                     util::Backoff (bounded exponential schedule, jitter,
                     injectable sleeper) so stalls never turn into blind
                     sleeps and tests can pin the exact retry schedule.
                     Fixed pacing that is genuinely not a retry loop is
                     waived per-site with a reason.

  hot-field-access   Direct indexing of the SoA hot-scalar lanes (vlevel_,
                     vmatched_, vsmask_, and the change-log flags
                     vchanged_) outside src/core/vertex_soa.h. Every
                     read/write of a vertex's level, matched edge or S_l
                     bitmask goes through the VertexHotSoA accessors so
                     the lanes stay in lockstep, every level / matched
                     write reaches the change log the delta view capture
                     reads, and the layout can evolve behind one header.

WAIVERS
  A site is waived with `// lint:allow(<rule>) <reason>` on the flagged
  line or up to 3 lines above it. The reason is mandatory: a waiver without
  one is itself a finding (waiver-reason), as is a waiver naming an
  unknown rule (waiver-unknown).

USAGE
  tools/pdmm_lint.py                 lint src/ tools/ bench/
  tools/pdmm_lint.py PATH...         lint specific files or directories
  tools/pdmm_lint.py --self-test     run the corpus under tests/lint/

Exit codes: 0 clean, 1 findings (or self-test mismatch), 2 usage/IO error.

Corpus files (self-test mode) mark each intentionally-bad line with
`// expect-lint: <rule>[,<rule>...]`; the corpus passes when findings and
markers agree exactly. A corpus file may pretend to live elsewhere in the
tree with a `// lint-test-path: src/persist/x.cpp` directive so scoped
rules (assert-recoverable, raw-alloc allowlists) can be exercised.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCOPE = ("src", "tools", "bench")
CPP_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

RULES = (
    "naked-parse",
    "mo-comment",
    "assert-recoverable",
    "raw-alloc",
    "tsa-rationale",
    "raw-sleep",
    "hot-field-access",
)

# Files where each rule does not apply (repo-relative, prefix match for
# directories). These are policy, not convenience: each entry is the place
# the rule's dangerous construct is supposed to live.
NAKED_PARSE_HOME = ("src/util/parse_num.h",)
RAW_ALLOC_HOME = (
    "src/util/small_vector.h",   # inline-storage container (placement new)
    "src/util/indexed_set.h",    # flat-array container owning its heap
    "src/parallel/reduce.h",     # per-block partial array, unique_ptr-owned
    "src/parallel/epoch_reclaim.h",  # fixed slot array, unique_ptr-owned
)
ASSERT_RECOVERABLE_SCOPE = ("src/persist/", "src/core/snapshot.cpp")
ASSERT_RECOVERABLE_FILES_RE = re.compile(r"^src/workload/trace[^/]*$")
TSA_HOME = ("src/util/thread_annotations.h",)
RAW_SLEEP_HOME = ("src/util/backoff.h",)
HOT_FIELD_HOME = ("src/core/vertex_soa.h",)

NAKED_PARSE_RE = re.compile(
    r"\b(?:std::)?"
    r"(strtol|strtoll|strtoul|strtoull|strtoimax|strtoumax|strtof|strtod|"
    r"strtold|atoi|atol|atoll|atof|stoi|stol|stoll|stoul|stoull|stof|stod|"
    r"stold)\s*\("
)
MEMORY_ORDER_RE = re.compile(r"\bstd::memory_order")
MO_COMMENT_RE = re.compile(r"//.*\bmo:")
ASSERT_RE = re.compile(r"\bPDMM_ASSERT(?:_MSG)?\s*\(")
NEW_RE = re.compile(r"(?:^|[^:\w])new\b(?!\s*\[\]\s*\()|::new\b")
MALLOC_RE = re.compile(r"\b(?:malloc|calloc|realloc|aligned_alloc)\s*\(")
TSA_MACRO_RE = re.compile(r"\bPDMM_NO_THREAD_SAFETY_ANALYSIS\b")
# Bare `sleep(` is deliberately not matched (too many false positives on
# member functions like Backoff::sleep()); the POSIX/std spellings below
# cover every blind-wait primitive the tree could reach for.
RAW_SLEEP_RE = re.compile(r"\b(sleep_for|sleep_until|usleep|nanosleep)\s*\(")
HOT_FIELD_RE = re.compile(
    r"\b(vlevel_|vmatched_|vsmask_|vchanged_)\s*[\[.]")
TSA_COMMENT_RE = re.compile(r"//.*\btsa:")
WAIVER_RE = re.compile(r"//\s*lint:allow\(([^)]*)\)\s*(.*)")
EXPECT_RE = re.compile(r"expect-lint:\s*([\w,\- ]+)")
TEST_PATH_RE = re.compile(r"//\s*lint-test-path:\s*(\S+)")

MO_LOOKBACK = 6
TSA_LOOKBACK = 10
WAIVER_LOOKBACK = 3


def strip_code(line: str) -> str:
    """Remove string/char literals and // comments from one line.

    Good enough for this codebase: multi-line block comments and raw
    strings are handled by the caller's block-comment pass; escapes inside
    literals are honored.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append('""' if quote == '"' else "' '")
            continue
        out.append(c)
        i += 1
    return "".join(out)


def blank_block_comments(lines: list[str]) -> list[str]:
    """Return lines with /* ... */ regions blanked (comment text removed)."""
    out = []
    in_block = False
    for line in lines:
        if not in_block and "/*" not in line:
            out.append(line)
            continue
        res = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                j = line.find("*/", i)
                if j < 0:
                    i = n
                else:
                    in_block = False
                    i = j + 2
            else:
                j = line.find("/*", i)
                if j < 0:
                    res.append(line[i:])
                    i = n
                else:
                    res.append(line[i:j])
                    in_block = True
                    i = j + 2
        out.append("".join(res))
    return out


class Finding:
    def __init__(self, path: str, line: int, rule: str, msg: str):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def path_matches(rel: str, prefixes) -> bool:
    return any(
        rel == p or (p.endswith("/") and rel.startswith(p)) for p in prefixes
    )


def lint_file(rel: str, raw_lines: list[str]) -> list[Finding]:
    """Lint one file; `rel` is the repo-relative path used for scoping."""
    no_block = blank_block_comments(raw_lines)
    code = [strip_code(l) for l in no_block]
    findings: list[Finding] = []

    def waived(idx: int, rule: str) -> bool:
        lo = max(0, idx - WAIVER_LOOKBACK)
        for j in range(idx, lo - 1, -1):
            m = WAIVER_RE.search(raw_lines[j])
            if not m:
                continue
            named, reason = m.group(1).strip(), m.group(2).strip()
            if named == rule:
                return True
            # A waiver for a different rule on a nearer line does not
            # shadow this one; keep looking upward.
        return False

    def add(idx: int, rule: str, msg: str):
        if not waived(idx, rule):
            findings.append(Finding(rel, idx + 1, rule, msg))

    # Waiver hygiene is checked unconditionally (waivers are never waived).
    for i, line in enumerate(raw_lines):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        named, reason = m.group(1).strip(), m.group(2).strip()
        if named not in RULES:
            findings.append(Finding(
                rel, i + 1, "waiver-unknown",
                f"lint:allow names unknown rule '{named}'"))
        if not reason:
            # The reason may continue on the next line of the same comment.
            nxt = raw_lines[i + 1].strip() if i + 1 < len(raw_lines) else ""
            if not (nxt.startswith("//") and len(nxt) > 2):
                findings.append(Finding(
                    rel, i + 1, "waiver-reason",
                    "lint:allow requires a reason after the rule name"))

    in_assert_scope = (
        path_matches(rel, ASSERT_RECOVERABLE_SCOPE)
        or bool(ASSERT_RECOVERABLE_FILES_RE.match(rel))
    )

    for i, cl in enumerate(code):
        # Preprocessor directives define macros; defining PDMM_ASSERT or
        # an analysis opt-out is not using one.
        is_directive = cl.lstrip().startswith("#")
        if NAKED_PARSE_RE.search(cl) and rel not in NAKED_PARSE_HOME:
            fn = NAKED_PARSE_RE.search(cl).group(1)
            add(i, "naked-parse",
                f"{fn}() outside util/parse_num.h — use the strict "
                "parse_u64/i64/f64 helpers")

        if MEMORY_ORDER_RE.search(cl):
            lo = max(0, i - MO_LOOKBACK)
            if not any(MO_COMMENT_RE.search(raw_lines[j])
                       for j in range(lo, i + 1)):
                add(i, "mo-comment",
                    "std::memory_order argument without an adjacent "
                    "`// mo:` justification")

        if in_assert_scope and not is_directive and ASSERT_RE.search(cl):
            add(i, "assert-recoverable",
                "PDMM_ASSERT in a recoverable-error surface — return an "
                "error instead (this layer parses external bytes)")

        if rel not in RAW_ALLOC_HOME:
            if NEW_RE.search(cl) or MALLOC_RE.search(cl):
                add(i, "raw-alloc",
                    "raw allocation outside the container/arena allowlist "
                    "— use containers, the arena, or make_unique in an "
                    "allowlisted file")

        if RAW_SLEEP_RE.search(cl) and rel not in RAW_SLEEP_HOME:
            fn = RAW_SLEEP_RE.search(cl).group(1)
            add(i, "raw-sleep",
                f"{fn}() outside util/backoff.h — retry/poll waits go "
                "through util::Backoff (waive fixed pacing with a reason)")

        if HOT_FIELD_RE.search(cl) and rel not in HOT_FIELD_HOME:
            lane = HOT_FIELD_RE.search(cl).group(1)
            add(i, "hot-field-access",
                f"direct access to SoA lane {lane} outside "
                "core/vertex_soa.h — go through the VertexHotSoA accessors")

        if (TSA_MACRO_RE.search(cl) and not is_directive
                and rel not in TSA_HOME):
            lo = max(0, i - TSA_LOOKBACK)
            if not any(TSA_COMMENT_RE.search(raw_lines[j])
                       for j in range(lo, i + 1)):
                add(i, "tsa-rationale",
                    "PDMM_NO_THREAD_SAFETY_ANALYSIS without a `// tsa:` "
                    "happens-before rationale")

    return findings


def collect_files(args: list[str]) -> list[Path]:
    roots = [Path(a) for a in args] if args else [
        REPO_ROOT / d for d in DEFAULT_SCOPE
    ]
    files: list[Path] = []
    for r in roots:
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            files.extend(
                p for p in sorted(r.rglob("*")) if p.suffix in CPP_SUFFIXES
            )
        else:
            print(f"pdmm_lint: no such path: {r}", file=sys.stderr)
            sys.exit(2)
    return files


def rel_of(p: Path) -> str:
    try:
        return p.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return p.as_posix()


def run_lint(args: list[str]) -> int:
    findings: list[Finding] = []
    for p in collect_files(args):
        try:
            raw = p.read_text().splitlines()
        except OSError as e:
            print(f"pdmm_lint: cannot read {p}: {e}", file=sys.stderr)
            return 2
        findings.extend(lint_file(rel_of(p), raw))
    for f in findings:
        print(f)
    if findings:
        print(f"pdmm_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def run_self_test(corpus: Path) -> int:
    """Corpus mode: findings must match // expect-lint markers exactly."""
    files = [p for p in sorted(corpus.rglob("*")) if p.suffix in CPP_SUFFIXES]
    if not files:
        print(f"pdmm_lint: empty corpus at {corpus}", file=sys.stderr)
        return 2
    failures = 0
    total_expected = 0
    for p in files:
        raw = p.read_text().splitlines()
        rel = rel_of(p)
        for line in raw[:5]:
            m = TEST_PATH_RE.search(line)
            if m:
                rel = m.group(1)
                break
        expected = set()
        for i, line in enumerate(raw):
            m = EXPECT_RE.search(line)
            if m:
                for rule in m.group(1).split(","):
                    expected.add((i + 1, rule.strip()))
        total_expected += len(expected)
        # Markers are corpus metadata, not part of the line under test
        # (e.g. a marker after `lint:allow(...)` must not become its
        # reason text); lint the file with them removed.
        stripped = [re.sub(r"\s*expect-lint:.*$", "", l) for l in raw]
        got = {(f.line, f.rule) for f in lint_file(rel, stripped)}
        for miss in sorted(expected - got):
            print(f"{p}:{miss[0]}: expected [{miss[1]}] but lint was silent")
            failures += 1
        for extra in sorted(got - expected):
            print(f"{p}:{extra[0]}: unexpected [{extra[1]}] finding")
            failures += 1
    if failures:
        print(f"pdmm_lint self-test: {failures} mismatch(es)",
              file=sys.stderr)
        return 1
    print(f"pdmm_lint self-test: {len(files)} corpus files, "
          f"{total_expected} expected findings, all matched")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    if argv and argv[0] == "--self-test":
        corpus = Path(argv[1]) if len(argv) > 1 else REPO_ROOT / "tests/lint"
        return run_self_test(corpus)
    return run_lint(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
