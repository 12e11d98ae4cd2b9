#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Runs every workload twice with the same seed, traced, and checks that the
host-independent quantities repeat exactly: the per-op counts of the
traced run and the virtual-time metrics. These are what gates can rest
on; wall-clock rates are compared only as same-host A/B runs.

    python3 perfbench/test_determinism.py [--seconds 2] [--workloads a,b]

Exit status 0 when everything repeats, 1 otherwise.
"""

import argparse
import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
import run  # noqa: E402

# Counts the traced run derives from program-reported totals; each must
# repeat bit for bit. A workload reports 0 for a layer it does not use.
COUNTS = [
    "runtime.events_per_op",
    "runtime.chunks_per_op",
    "runtime.allocs_per_event",
    "serve.events_per_job",
    "fuzz.offloads_per_scenario",
]
# Virtual-time and outcome metrics printed by every run.
VIRTUAL = ["virtual_ms_geomean", "virtual_gold_p99_ms", "fail_ratio"]


def measure(workload, seed, seconds):
    rc, lines = run.run_once(workload, seed, seconds, 1, echo=False)
    res = run.result_of(lines)
    if rc != 0 or res is None:
        run.fail("%s seed %d: run failed (exit %d)" % (workload, seed, rc))
    if not res["correct"] or res["failed"] != 0:
        run.fail("%s seed %d: correctness gate failed" % (workload, seed))
    return run.text_metrics(lines)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = p.parse_args()

    run.build()
    bad = 0
    for w in args.workloads.split(","):
        a = measure(w, args.seed, args.seconds)
        b = measure(w, args.seed, args.seconds)
        for name in COUNTS + VIRTUAL:
            if name not in a and name not in b:
                continue
            same = a.get(name) == b.get(name)
            bad += 0 if same else 1
            print("%-4s %-12s %-28s %r %r" % ("ok" if same else "FAIL", w,
                                              name, a.get(name), b.get(name)))
    print("determinism: %s" % ("ok" if bad == 0 else "%d mismatches" % bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
