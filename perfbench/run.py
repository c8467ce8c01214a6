#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds a
Release copy of the library and the benchmark program under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed.

BENCHMARK.json is the metric catalogue. The program reports bare numbers
for the metrics it measured; this script attaches each metric's unit,
refuses a metric the catalogue does not name or a missing end-to-end
metric, and reports a per-layer metric the workload does not measure as 0
(listed in a "# not measured" line). The last line of stdout is the result
object; when the program cannot be built or cannot measure, the script
exits non-zero without printing one.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn_small_t1", "churn_wide_t4", "durable_serve")
# A run measures for --seconds plus set-up and checks; the program gets the
# rest of the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg, code=3):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not all(os.path.isfile(os.path.join(ROOT, f))
               for f in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"))):
        fail(f"no pdmm sources at {os.path.join(ROOT, 'src')}; run from a "
             "full checkout of the repository", 2)
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 2)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configuring the benchmark failed")
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("building the benchmark failed")
    exe = os.path.join(bdir, "pdmm_perfbench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no {exe}")
    return exe


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def load_catalogue():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}", 2)


def with_units(measured, table, allow_missing):
    """The result's metrics in catalogue order, each with its unit.

    Returns the metrics and the names of those the program did not measure
    (reported as 0; only allowed for per-layer metrics).
    """
    names = {m["name"] for m in table}
    extra = sorted(set(measured) - names)
    if extra:
        fail("the program reports metrics BENCHMARK.json does not name: "
             + " ".join(extra))
    metrics, unmeasured = {}, []
    for m in table:
        value = measured.get(m["name"])
        if value is None:
            if m["name"] in measured or not allow_missing:
                fail(f"metric {m['name']} was not measured")
            unmeasured.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, unmeasured


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]", 2)

    catalogue = load_catalogue()
    bdir = build_dir()
    exe = build(bdir)
    work = os.path.join(bdir, "work", args.workload)
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--work_dir={work}", f"--commit={source_revision()}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("".join(l + "\n" for l in lines if l.startswith("#")))
        fail(f"the benchmark program exited with {proc.returncode}")
    notes = "".join(l + "\n" for l in lines[:-1])
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the benchmark program printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    table = catalogue["per_layer" if args.trace else "end_to_end"]
    result["metrics"], unmeasured = with_units(result["metrics"], table,
                                               allow_missing=args.trace)
    sys.stdout.write(notes)
    if unmeasured:
        print(f"# not measured on {args.workload}, reported as 0: "
              + " ".join(unmeasured))
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
