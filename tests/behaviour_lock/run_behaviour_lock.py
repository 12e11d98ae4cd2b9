#!/usr/bin/env python3
"""Behaviour lock, run under ctest: deterministic outputs against goldens.

Locked byte for byte: the stdout of BENCHES (golden/<bench>.txt), the
seed-1 homp-fuzz corpus and serve-corpus summaries (golden/*.json), and
`bench_traffic --smoke` against the committed BENCH_traffic.json. An
intended behaviour change regenerates the goldens in the same commit
(the suite prints the `cp` that accepts a fresh output) and says why in
CHANGES.md.
"""

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "golden")

BENCHES = ("bench_fig5_gpu4", "bench_fig6_breakdown", "bench_fig8_cpu_mic",
           "bench_fig9_all_devices", "bench_table5_cutoff")


def cases(bench_dir, fuzz, work):
    """(golden path, command, output file or None for stdout)."""
    for b in BENCHES:
        yield (os.path.join(GOLDEN, b + ".txt"), [os.path.join(bench_dir, b)],
               None)
    for name, mode in (("fuzz_seed1_count40.json", ["--count", "40"]),
                       ("fuzz_serve_seed1_count100.json",
                        ["--serve", "--count", "100"])):
        out = os.path.join(work, name)
        yield (os.path.join(GOLDEN, name),
               [fuzz, "--seed", "1", *mode, "--summary-out", out,
                "--repro-dir", os.path.join(work, "repros")], out)
    out = os.path.join(work, "BENCH_traffic.json")
    yield (os.path.join(REPO, "BENCH_traffic.json"),
           [os.path.join(bench_dir, "bench_traffic"), "--smoke",
            "--json-out", out], out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench-dir", required=True)
    ap.add_argument("--fuzz-bin", required=True)
    args = ap.parse_args()

    work = tempfile.mkdtemp(prefix="homp_behaviour_lock_")
    failed = 0
    for golden, cmd, out in cases(args.bench_dir, args.fuzz_bin, work):
        name = os.path.relpath(golden, REPO)
        r = subprocess.run(cmd, capture_output=True, timeout=600)
        if r.returncode != 0:
            print("FAIL %s: %s exited %d\n%s" % (
                name, cmd[0], r.returncode, r.stderr.decode(errors="replace")))
            failed += 1
            continue
        if out is None:
            out = os.path.join(work, os.path.basename(golden))
            with open(out, "wb") as f:
                f.write(r.stdout)
        with open(out, "rb") as f:
            fresh = f.read()
        with open(golden, "rb") as f:
            want = f.read()
        if fresh == want:
            print("ok   %s" % name)
            continue
        failed += 1
        print("FAIL %s differs:" % name)
        diff = list(difflib.unified_diff(
            want.decode(errors="replace").splitlines(),
            fresh.decode(errors="replace").splitlines(),
            "golden", "fresh", lineterm="", n=1))
        print("\n".join("  " + line for line in diff[:40]))
        print("  accept with: cp %s %s" % (out, golden))

    if failed:
        print("behaviour lock: %d locked output(s) changed" % failed)
        return 1
    shutil.rmtree(work)
    print("behaviour lock: all outputs match their goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
