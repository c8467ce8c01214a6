#!/usr/bin/env python3
"""bench_compare: the counter ratchet over two pdmm-bench-v1 reports.

USAGE
  tools/bench_compare.py BASELINE.json RUN.json

Both files are `pdmm_bench --json=PATH` reports. Points match on (bench,
params). Every matched point must carry the same `work`, `rounds`,
`updates` and `max_batch_rounds`, compared as exact integers: these are
the quantities the paper bounds (work and depth, Theorems 4.4 and 4.16),
and fixed seeds reproduce them on every repetition and at every thread
count. Reports whose meta `seed`, `warmup` or `smoke` differ ran
different points and are refused.

Wall-clock is printed per bench as the geometric mean of the matched
points' median-seconds ratios (RUN / BASELINE), for information only; it
never changes the exit code. Wall-clock claims are judged by perfbench
(perfbench/README.md). A warning says when the two reports come from
different machines or builds (meta `hardware_threads`, `compiler`,
`build_type` or `arch`).

EXIT CODES
  0  every matched point carries the same counters
  3  counter drift; each drifted point and field is named on stdout
  1  an unreadable or incomparable input: not a pdmm-bench-v1 report, a
     counter that is not an integer, a duplicated point, differing meta
     seed/warmup/smoke, or no point in common
  2  usage
"""

import json
import math
import sys
from collections import Counter

SCHEMA = "pdmm-bench-v1"
COUNTERS = ("work", "rounds", "updates", "max_batch_rounds")
# Reports that differ in these ran different points.
SAME_POINTS = ("seed", "warmup", "smoke")
# Reports that differ in these timed different machines or builds.
SAME_MACHINE = ("hardware_threads", "compiler", "build_type", "arch")


class Incomparable(Exception):
    """An input the ratchet cannot judge (exit 1)."""


def describe(result):
    params = " ".join(f"{k}={v}" for k, v in result["params"].items())
    return f"{result['bench']} [{params}]"


def load(path):
    """Returns (meta, {(bench, sorted params): result}) of one report."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise Incomparable(f"{path}: {e}") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise Incomparable(f"{path}: not a {SCHEMA} report")
    meta, results = doc.get("meta"), doc.get("results")
    if not isinstance(meta, dict) or not isinstance(results, list):
        raise Incomparable(f"{path}: no meta object or results array")
    missing = [k for k in SAME_POINTS if k not in meta]
    if missing:
        raise Incomparable(f"{path}: meta has no {', '.join(missing)}")
    points = {}
    for i, r in enumerate(results):
        where = f"{path}: results[{i}]"
        if (not isinstance(r, dict) or not isinstance(r.get("bench"), str)
                or not isinstance(r.get("params"), dict)
                or not all(isinstance(v, str) for v in r["params"].values())):
            raise Incomparable(
                f"{where}: needs a bench name and string-valued params")
        for c in COUNTERS:
            # bool is an int subclass in Python; a counter is neither.
            if type(r.get(c)) is not int:
                raise Incomparable(
                    f"{where} ({describe(r)}): {c} is not an integer: "
                    f"{r.get(c)!r}")
        key = (r["bench"], tuple(sorted(r["params"].items())))
        if key in points:
            raise Incomparable(f"{where}: duplicate point {describe(r)}")
        points[key] = r
    return meta, points


def median_seconds(result):
    seconds = result.get("seconds")
    median = seconds.get("median") if isinstance(seconds, dict) else None
    if isinstance(median, (int, float)) and not isinstance(median, bool):
        return median
    return 0.0


def per_bench_counts(keys):
    counts = Counter(bench for bench, _ in keys)
    return ", ".join(f"{b} {n}" for b, n in sorted(counts.items()))


def compare(base_path, run_path):
    base_meta, base = load(base_path)
    run_meta, run = load(run_path)
    for k in SAME_POINTS:
        if base_meta[k] != run_meta[k]:
            raise Incomparable(
                f"meta {k} differs: {base_meta[k]!r} in {base_path}, "
                f"{run_meta[k]!r} in {run_path}")
    matched = [key for key in run if key in base]
    if not matched:
        raise Incomparable(
            f"no point of {run_path} matches one of {base_path} "
            f"(bench and params)")

    machine = [f"{k} {base_meta.get(k)!r} vs {run_meta.get(k)!r}"
               for k in SAME_MACHINE if base_meta.get(k) != run_meta.get(k)]
    if machine:
        print("warning: the reports come from different machines or builds "
              f"({'; '.join(machine)}); the wall-clock ratios below "
              "compare those too", file=sys.stderr)

    print(f"=== {run_path} vs {base_path} ===")
    print("# wall-clock geomean of RUN/BASELINE median seconds per bench "
          "(information only)")
    logs = {}
    for key in matched:
        b, r = median_seconds(base[key]), median_seconds(run[key])
        if b > 0 and r > 0:
            logs.setdefault(key[0], []).append(math.log(r / b))
    for bench in sorted({bench for bench, _ in matched}):
        xs = logs.get(bench)
        if xs:
            print(f"  {bench:<24} {math.exp(sum(xs) / len(xs)):.3f}x over "
                  f"{len(xs)} timed point{'s' if len(xs) != 1 else ''}")
        else:
            print(f"  {bench:<24} untimed")

    drifted = 0
    for key in matched:
        fields = [f"{c} {base[key][c]} -> {run[key][c]}" for c in COUNTERS
                  if base[key][c] != run[key][c]]
        if fields:
            drifted += 1
            print(f"DRIFT {describe(run[key])}: {', '.join(fields)}")

    only_base = [key for key in base if key not in run]
    only_run = [key for key in run if key not in base]
    if only_base:
        print(f"# points only in {base_path}: {per_bench_counts(only_base)}")
    if only_run:
        print(f"# points only in {run_path}: {per_bench_counts(only_run)}")
    print(f"# {len(matched)} matched points, {drifted} with counter drift")
    return 3 if drifted else 0


def main(argv):
    if len(argv) != 3 or argv[1].startswith("-"):
        print("usage: bench_compare.py BASELINE.json RUN.json",
              file=sys.stderr)
        return 2
    try:
        return compare(argv[1], argv[2])
    except Incomparable as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
