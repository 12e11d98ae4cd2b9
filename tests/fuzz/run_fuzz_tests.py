#!/usr/bin/env python3
"""End-to-end contract suite for the homp-fuzz CLI, run under ctest.

Contract under test (docs/FUZZING.md):
  * a fixed-seed corpus run is deterministic: two runs with the same
    configuration print byte-identical summary JSON and exit 0 when no
    invariant is violated;
  * every scenario is swept through all ten algorithm families;
  * `--plant corrupt-commit` plants a silent-corruption violation that
    the oracle catches, the shrinker minimizes, and the driver writes as
    a self-contained repro pair (.toml + .ini);
  * `--replay` on that repro re-runs it deterministically and exits 0
    reporting the same invariant failing;
  * `--reverse-ties` corpora (both modes) are clean and deterministic,
    differ from canonical order, and record the mode in their repros;
  * every generated serve scenario is valid (seed 618 once drew an
    out-of-range slowdown rate);
  * usage errors exit 2.

Needs the homp-fuzz binary: pass --fuzz-bin, as the ctest entry does.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import unittest

FUZZ_BIN = None  # set by main()
WORK = None


def fuzz(*args, timeout=300):
    return subprocess.run([FUZZ_BIN, *args], capture_output=True,
                          text=True, timeout=timeout)


def setUpModule():
    global WORK
    WORK = tempfile.TemporaryDirectory(prefix="homp_fuzz_test_")


def tearDownModule():
    WORK.cleanup()


class Determinism(unittest.TestCase):
    def test_same_corpus_twice_is_byte_identical(self):
        args = ("--seed", "3", "--count", "6",
                "--repro-dir", os.path.join(WORK.name, "det"))
        a = fuzz(*args)
        b = fuzz(*args)
        self.assertEqual(a.returncode, 0, a.stdout + a.stderr)
        self.assertEqual(b.returncode, 0, b.stdout + b.stderr)
        self.assertEqual(a.stdout, b.stdout,
                         "summary JSON is not deterministic")

    def test_every_scenario_sweeps_all_ten_algorithms(self):
        r = fuzz("--seed", "3", "--count", "4",
                 "--repro-dir", os.path.join(WORK.name, "sweep"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["scenarios"], 4)
        # 10 algorithms per scenario (the oracle sweeps every family).
        self.assertEqual(doc["offloads"], 40)
        self.assertEqual(doc["violations"], 0)
        for s in doc["runs"]:
            self.assertTrue(s["digest"].startswith("0x"))


class PlantedViolation(unittest.TestCase):
    def test_planted_corruption_is_caught_shrunk_and_replayable(self):
        repro_dir = os.path.join(WORK.name, "planted")
        r = fuzz("--seed", "11", "--count", "1", "--plant", "corrupt-commit",
                 "--repro-dir", repro_dir)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        doc = json.loads(r.stdout)
        self.assertGreaterEqual(doc["violations"], 1)
        self.assertEqual(len(doc["failures"]), 1)
        failure = doc["failures"][0]
        self.assertIn(failure["invariant"],
                      ("reference", "differential-results"))

        # Self-contained repro pair on disk.
        toml = failure["repro"]
        self.assertTrue(os.path.exists(toml), toml)
        ini = os.path.join(os.path.dirname(toml),
                           "repro-%d.ini" % failure["seed"])
        self.assertTrue(os.path.exists(ini), ini)

        # Shrinking made it smaller than the generator's default ceiling.
        self.assertLessEqual(failure["shrunk_devices"], 6)

        # Replay reproduces the same invariant failure deterministically.
        rep = fuzz("--replay", toml)
        self.assertEqual(rep.returncode, 0, rep.stdout + rep.stderr)
        self.assertIn("REPRODUCED", rep.stdout)
        self.assertIn(failure["invariant"], rep.stdout)


class ReverseTies(unittest.TestCase):
    """--reverse-ties pops same-timestamp events newest-first in every
    engine the corpus runs (docs/DETERMINISM.md): schedules may change,
    results and invariants may not."""

    def check_corpus(self, *mode):
        args = (*mode, "--seed", "3", "--count", "6",
                "--repro-dir", os.path.join(WORK.name, "rev" + "".join(mode)))
        a = fuzz("--reverse-ties", *args)
        b = fuzz("--reverse-ties", *args)
        can = fuzz(*args)
        for r in (a, b, can):
            self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(a.stdout, b.stdout,
                         "--reverse-ties summary JSON is not deterministic")
        rev, can = json.loads(a.stdout), json.loads(can.stdout)
        self.assertTrue(rev["config"]["reverse_ties"])
        self.assertFalse(can["config"]["reverse_ties"])
        # Digests fold engine event counts and virtual times, so a mode
        # that reached the engines changes some of them.
        self.assertNotEqual([r["digest"] for r in rev["runs"]],
                            [r["digest"] for r in can["runs"]])

    def test_corpus_is_clean_deterministic_and_reaches_the_engines(self):
        self.check_corpus()

    def test_serve_corpus_is_clean_deterministic_and_reaches_the_engine(self):
        self.check_corpus("--serve")

    def test_reverse_ties_is_recorded_in_the_repro_and_replayed(self):
        r = fuzz("--reverse-ties", "--seed", "11", "--count", "1",
                 "--plant", "corrupt-commit",
                 "--repro-dir", os.path.join(WORK.name, "rev-planted"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        toml = json.loads(r.stdout)["failures"][0]["repro"]
        with open(toml, encoding="utf-8") as f:
            self.assertIn("reverse_ties = true\n", f.read())
        rep = fuzz("--replay", toml)
        self.assertEqual(rep.returncode, 0, rep.stdout + rep.stderr)
        self.assertIn("REPRODUCED", rep.stdout)

    def test_serve_mode_rejects_planting(self):
        r = fuzz("--serve", "--plant", "corrupt-commit")
        self.assertEqual(r.returncode, 2)


class ServeGenerator(unittest.TestCase):
    def test_molasses_tenant_rate_stays_in_range(self):
        r = fuzz("--serve", "--seed", "618", "--count", "1",
                 "--repro-dir", os.path.join(WORK.name, "serve618"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(json.loads(r.stdout)["violations"], 0)


class ErrorContract(unittest.TestCase):
    def test_unknown_flag_exits_2(self):
        r = fuzz("--frobnicate")
        self.assertEqual(r.returncode, 2)

    def test_replay_of_missing_file_exits_2(self):
        r = fuzz("--replay", os.path.join(WORK.name, "nope.toml"))
        self.assertEqual(r.returncode, 2)

    def test_replay_of_malformed_file_exits_2(self):
        bad = os.path.join(WORK.name, "bad.toml")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("[scenario]\nseed = frog\n")
        r = fuzz("--replay", bad)
        self.assertEqual(r.returncode, 2)
        self.assertNotIn("Traceback", r.stderr)


def main():
    global FUZZ_BIN
    ap = argparse.ArgumentParser()
    ap.add_argument("--fuzz-bin", required=True,
                    help="path to the built homp-fuzz binary")
    args, rest = ap.parse_known_args()
    FUZZ_BIN = args.fuzz_bin
    unittest.main(argv=[sys.argv[0]] + rest)


if __name__ == "__main__":
    main()
