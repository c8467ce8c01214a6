#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S]

Runs every workload briefly through run.py, with tracing off and on, and
checks that:
  * each run prints every metric BENCHMARK.json names, with its unit, and
    fails no operation;
  * the deterministic counts repeat exactly for a repeated seed;
  * a held-out seed completes too;
  * the isolation predictions hold: the churn workloads reach no engine,
    journal, checkpoint or replica sync point (counted by a hook in the
    library's seam) and measure no engine, persist, serve or replicate
    metric, while durable_serve measures every one; churn_small_t1 runs on
    one core without context switches;
  * the spans cover the timed path: on churn_* against the batch loop's
    own clock, on durable_serve against the engine's LatencySample clock;
  * run.py refuses, without a result, in a directory holding only
    BENCHMARK.json and this directory.
It also prints the tracing overhead: traced vs untraced end-to-end figures.
Exit status 0 when every check passes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 20261016
BYPASSED_BY_CHURN = ("engine.", "persist.", "serve.", "replicate.")

NOTES = ("# counts ", "# update_p50_us ",
         "# sync-point events during the passes: ", "# not measured on ")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)
    return ok


def run(workload, seed, seconds, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    notes = {}
    for line in lines:
        for key in NOTES:
            if line.startswith(key):
                notes[key] = line[len(key):].strip()
    if result is not None and "# update_p50_us " in notes:
        # The latency figure is a note, not an end-to-end metric.
        result["update_p50_us"] = float(notes["# update_p50_us "].split()[0])
    return proc, result, notes


def check_result(bench, workload, trace, result):
    tag = f"{workload} trace={trace}"
    if not check(result is not None, f"{tag}: printed a result"):
        return {}
    check(result["correct"] is True and result["failed"] == 0,
          f"{tag}: correct, failed={result['failed']} of "
          f"{result['attempted']}")
    want = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    check(sorted(got) == sorted(m["name"] for m in want),
          f"{tag}: emits exactly the {len(want)} named metrics")
    check(all(got.get(m["name"], {}).get("unit") == m["unit"] for m in want),
          f"{tag}: every unit matches BENCHMARK.json")
    values = {k: v["value"] for k, v in got.items()}
    if not trace:
        check(all(v > 0 for v in values.values()),
              f"{tag}: every end-to-end value is positive")
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    # churn_wide_t4 is not a gated workload (README.md) but must keep
    # working for the comparisons it exists for.
    workloads = [w["name"] for w in bench["workloads"]] + ["churn_wide_t4"]
    bypassed = {m["name"] for m in bench["per_layer"]
                if m["name"].startswith(BYPASSED_BY_CHURN)}
    for w in workloads:
        _, r0, notes0 = run(w, 1, args.seconds, 0)
        plain = check_result(bench, w, 0, r0)
        _, r1, notes1 = run(w, 1, args.seconds, 1)
        layer = check_result(bench, w, 1, r1)
        if not layer:
            continue
        cov = layer["trace.coverage"]
        check(0.95 <= cov <= 1.05,
              f"{w}: spans cover {cov:.3f} of the timed path (0.95..1.05)")
        unmeasured = set(notes1.get("# not measured on ", "").split()[4:])
        if w.startswith("churn"):
            events = notes1.get("# sync-point events during the passes: ")
            check(events == "0", f"{w}: the passes reach no engine/journal/"
                                 f"checkpoint/replica sync point ({events})")
            check(bypassed <= unmeasured,
                  f"{w}: measures no engine/persist/serve/replicate metric "
                  f"{sorted(bypassed - unmeasured) or ''}")
        else:
            check(not bypassed & unmeasured,
                  f"{w}: measures every engine/persist/serve/replicate "
                  f"metric {sorted(bypassed & unmeasured) or ''}")
        if w == "churn_small_t1":
            cpu = layer["parallel.cpu_per_wall"]
            ctx = layer["parallel.ctx_switches_per_batch"]
            check(0.9 <= cpu <= 1.1, f"{w}: cpu_per_wall {cpu:.3f} ~ 1")
            check(ctx < 0.1, f"{w}: ctx_switches_per_batch {ctx:.4f} ~ 0")
        if w == "durable_serve":
            print(f"      {w}: the recovery spans cover "
                  f"{layer['persist.recover.coverage']:.3f} of recover_s")
        plain["update_p50_us"] = r0.get("update_p50_us", 0) if r0 else 0
        for name, base in plain.items():
            traced = layer.get("trace." + name)
            if traced is not None and base:
                print(f"      {w}: tracing overhead on {name}: "
                      f"{100 * (traced / base - 1):+.1f}%")
        # Deterministic counts repeat for the same seed.
        _, r2, notes2 = run(w, 1, args.seconds, 0)
        counts0 = notes0.get("# counts ")
        check(counts0 is not None and counts0 == notes2.get("# counts "),
              f"{w}: deterministic counts repeat for seed 1")

    for w in workloads:
        _, r, _ = run(w, HELD_OUT_SEED, args.seconds, 0)
        check(r is not None and r["failed"] == 0,
              f"{w}: held-out seed {HELD_OUT_SEED} completes clean")

    # Only BENCHMARK.json and this directory: no sources, so no result.
    iso = os.path.join(ROOT, ".bench_build", "selftest-isolated")
    shutil.rmtree(iso, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    proc, r, _ = run("churn_small_t1", 1, args.seconds, 0, cwd=iso)
    check(proc.returncode != 0 and r is None,
          "without the repository's sources run.py exits non-zero, "
          "no result")
    shutil.rmtree(iso, ignore_errors=True)

    print(f"\n{len(failures)} check(s) failed" if failures else
          "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
