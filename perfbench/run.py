#!/usr/bin/env python3
"""Host-cost benchmark of the HOMP runtime (see perfbench/README.md).

Run one workload (builds the benchmark on first use):

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (the traced run also
writes a chrome trace under .bench_build/traces/).

Check run-to-run spread against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --steadiness [--runs 10] [--workloads a,b]

Run from the repository root or anywhere else; paths are resolved from
this file. Everything built or written stays under <root>/.bench_build.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "homp_perfbench")
WORKLOADS = ["sim-sweep", "data-path", "fuzz-corpus", "serve-soak"]
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    """Configure (once) and build the benchmark; quiet unless it fails."""
    for need in ("src/CMakeLists.txt", "bench/support/harness.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full checkout of the repository"
                 % need, 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                sys.stderr.write("".join(tail))
                fail("build failed (%s); log in %s" % (" ".join(cmd), log_path))
    if not os.path.isfile(BINARY):
        fail("build produced no %s" % BINARY)


def run_once(workload, seed, seconds, trace, echo=True):
    """Run the binary once; return (exit code, list of stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%s.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s seed %s did not finish within %d s"
             % (workload, seed, RUN_TIMEOUT_S))
    lines = out.splitlines()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, lines


def result_of(lines):
    """The final JSON object of a run."""
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def text_metrics(lines):
    """The "metric"/"perlayer" lines a run printed: name -> value."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("metric", "perlayer"):
            out[parts[1]] = float(parts[2])
    return out


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    flagged = 0
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            rc, lines = run_once(w, seed, seconds, 0, echo=False)
            res = result_of(lines)
            if rc != 0 or res is None or not res["correct"]:
                fail("%s seed %d failed (exit %d)" % (w, seed, rc))
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print("%s (%d runs, %g s each)" % (w, args.runs, seconds))
        print("  %-18s %14s %14s %14s %8s %7s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    flag = "  OVER BOUND"
                    flagged += 1
                elif spread > m["bound"] / 3:
                    flag = "  over bound/3"
            print("  %-18s %14.6g %14.6g %14.6g %7.2f%% %6.0f%%%s" %
                  (m["name"], med, q1, q3, 100 * spread, 100 * m["bound"],
                   flag))
        sys.stdout.flush()
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true",
                   help="run each workload --runs times and report spreads")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated, for --steadiness")
    args = p.parse_args()

    build()
    if args.steadiness:
        if args.runs < 2:
            fail("--runs must be at least 2", 2)
        sys.exit(steadiness(args))
    if args.workload is None or args.seconds is None:
        p.error("--workload and --seconds are required")
    rc, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    if rc != 0 or result_of(lines) is None:
        fail("%s run failed (exit %d)" % (args.workload, rc))
    sys.exit(0)


if __name__ == "__main__":
    main()
