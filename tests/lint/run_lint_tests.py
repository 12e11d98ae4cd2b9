#!/usr/bin/env python3
"""Self-test suite for tools/lint/homp_lint.py, run under ctest.

Contract under test:
  * each bad_* fixture makes the linter exit nonzero with a file:line
    diagnostic carrying the expected check ID;
  * good_* fixtures and suppressed_* fixtures lint clean;
  * --json output is stable machine-readable JSON;
  * config errors (cyclic layer graph, unknown check, missing path)
    exit 2, never 0 or 1.

Fixtures are linted with --strict so the built-in tests/-path exemption
for HL001 does not mask them.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINTER = os.path.join(REPO, "tools", "lint", "homp_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args):
    return subprocess.run(
        [sys.executable, LINTER, *args],
        capture_output=True, text=True, cwd=REPO)


def fx(*parts):
    return os.path.join(FIXTURES, *parts)


BAD_FIXTURES = {
    fx("bad_hl001.cpp"): ("HL001", 6),
    fx("bad_hl002.cpp"): ("HL002", 6),
    fx("layering", "src", "sim", "bad_hl003.cpp"): ("HL003", 2),
    fx("bad_hl004.h"): ("HL004", 2),
    fx("bad_hl005.cpp"): ("HL005", 2),
    fx("obs", "bad_hl005_names.h"): ("HL005", 2),
    fx("advise", "bad_hl005_keys.h"): ("HL005", 2),
    fx("serve", "src", "serve", "bad_hl006.cpp"): ("HL006", 4),
    fx("bad_hl007_report.cpp"): ("HL007", 2),
    fx("kernels", "src", "kernels", "bad_hl009.cpp"): ("HL009", 2),
    fx("kernels", "src", "lang", "bad_hl009_lang.cpp"): ("HL009", 1),
}

CLEAN_FIXTURES = [
    fx("good_hl001.cpp"),
    fx("good_hl002.cpp"),
    fx("layering", "src", "runtime", "good_hl003.cpp"),
    fx("good_hl004.h"),
    fx("good_hl005.cpp"),
    fx("obs", "good_hl005_names.h"),
    fx("advise", "good_hl005_keys.h"),
    fx("suppressed_hl001.cpp"),
    fx("suppressed_hl002.cpp"),
    fx("layering", "src", "sim", "suppressed_hl003.cpp"),
    fx("suppressed_hl004.h"),
    fx("suppressed_hl005.cpp"),
    fx("obs", "suppressed_hl005_names.h"),
    fx("advise", "suppressed_hl005_keys.h"),
    fx("serve", "src", "serve", "good_hl006.cpp"),
    fx("serve", "src", "serve", "suppressed_hl006.cpp"),
    fx("good_hl007_report.cpp"),
    fx("suppressed_hl007_report.cpp"),
    fx("kernels", "src", "kernels", "good_hl009.cpp"),
    fx("kernels", "src", "kernels", "suppressed_hl009.cpp"),
    fx("kernels", "src", "capi", "good_hl009_capi.cpp"),
]


class BadFixtures(unittest.TestCase):
    def test_each_bad_fixture_fails_with_its_id(self):
        for path, (check_id, expected_count) in BAD_FIXTURES.items():
            with self.subTest(fixture=os.path.basename(path)):
                r = run_lint("--strict", path)
                self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
                lines = [l for l in r.stdout.splitlines() if check_id in l]
                self.assertEqual(len(lines), expected_count, r.stdout)
                # every diagnostic is file:line-anchored
                for line in lines:
                    prefix = line.split(" ", 1)[0]
                    f, ln, _ = prefix.rsplit(":", 2)
                    self.assertTrue(f.endswith(os.path.basename(path)), line)
                    self.assertTrue(int(ln) >= 1, line)
                # only the expected check fires on its fixture
                other = [l for l in r.stdout.splitlines()
                         if "HL0" in l and check_id not in l]
                self.assertEqual(other, [], r.stdout)


class CleanFixtures(unittest.TestCase):
    def test_good_and_suppressed_fixtures_pass(self):
        for path in CLEAN_FIXTURES:
            with self.subTest(fixture=os.path.basename(path)):
                r = run_lint("--strict", path)
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                self.assertEqual(r.stdout.strip(), "")


class JsonContract(unittest.TestCase):
    def test_json_shape_on_bad_fixture(self):
        r = run_lint("--strict", "--json", fx("bad_hl001.cpp"))
        self.assertEqual(r.returncode, 1)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["version"], 1)
        self.assertEqual(doc["files_scanned"], 1)
        self.assertEqual(doc["counts"], {"HL001": 6})
        for d in doc["diagnostics"]:
            self.assertEqual(sorted(d),
                             ["check", "file", "hint", "id", "line", "message"])
            self.assertEqual(d["id"], "HL001")
            self.assertEqual(d["check"], "deferred-ref-capture")
            self.assertIsInstance(d["line"], int)
            self.assertTrue(d["hint"])

    def test_json_clean_run(self):
        r = run_lint("--json", fx("good_hl001.cpp"))
        self.assertEqual(r.returncode, 0)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["diagnostics"], [])
        self.assertEqual(doc["counts"], {})


class ErrorContract(unittest.TestCase):
    def test_cyclic_layer_graph_is_a_config_error(self):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".toml", delete=False) as f:
            f.write('[layers]\na = ["b"]\nb = ["a"]\n')
            path = f.name
        try:
            r = run_lint("--config", path, fx("good_hl001.cpp"))
            self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
            self.assertIn("cycle", r.stderr)
        finally:
            os.unlink(path)

    def test_undeclared_dependency_is_a_config_error(self):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".toml", delete=False) as f:
            f.write('[layers]\na = ["ghost"]\n')
            path = f.name
        try:
            r = run_lint("--config", path, fx("good_hl001.cpp"))
            self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
            self.assertIn("undeclared", r.stderr)
        finally:
            os.unlink(path)

    def test_unknown_check_id(self):
        r = run_lint("--checks", "HL999", fx("good_hl001.cpp"))
        self.assertEqual(r.returncode, 2)
        self.assertIn("HL999", r.stderr)

    def test_missing_path(self):
        r = run_lint(os.path.join(FIXTURES, "does_not_exist.cpp"))
        self.assertEqual(r.returncode, 2)


class ParallelScan(unittest.TestCase):
    def test_pool_and_serial_agree_byte_for_byte(self):
        """--jobs N must not change the report: same diagnostics, same
        order, same exit code as the serial scan."""
        serial = run_lint("--strict", "--jobs", "1", FIXTURES)
        pooled = run_lint("--strict", "--jobs", "4", FIXTURES)
        self.assertEqual(serial.returncode, 1)
        self.assertEqual(pooled.returncode, serial.returncode)
        self.assertEqual(pooled.stdout, serial.stdout)


class ChangedOnly(unittest.TestCase):
    def test_scans_only_git_changed_files(self):
        """--changed-only lints what git reports changed (plus untracked)
        and skips committed-clean files even when they carry findings."""
        bad = "#include <ctime>\nlong f() { return std::time(nullptr); }\n"
        with tempfile.TemporaryDirectory() as d:
            def git(*a):
                subprocess.run(
                    ["git", "-c", "user.email=l@l", "-c", "user.name=l", *a],
                    cwd=d, check=True, capture_output=True)
            git("init", "-q")
            with open(os.path.join(d, "committed.cpp"), "w") as f:
                f.write(bad)
            git("add", "committed.cpp")
            git("commit", "-q", "-m", "seed")
            with open(os.path.join(d, "fresh.cpp"), "w") as f:
                f.write(bad)
            r = subprocess.run(
                [sys.executable, LINTER, "--strict", "--changed-only", "."],
                capture_output=True, text=True, cwd=d)
            self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
            self.assertIn("fresh.cpp", r.stdout)
            self.assertNotIn("committed.cpp", r.stdout)
            self.assertIn("HL005", r.stderr)  # the disabled-pass notice


class TreeIsClean(unittest.TestCase):
    def test_src_and_tests_lint_clean(self):
        """The acceptance gate: the real tree has zero findings.  Fixture
        directories are excluded by the linter's default walk rules."""
        r = run_lint(os.path.join(REPO, "src"), os.path.join(REPO, "tests"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_strict_mode_still_fires_somewhere(self):
        """Guards against the linter silently matching nothing: test code
        legitimately uses [&] with a frame-owned engine, so --strict over
        tests/sim must produce HL001 findings."""
        r = run_lint("--strict", "--checks", "HL001",
                     os.path.join(REPO, "tests", "sim"))
        self.assertEqual(r.returncode, 1)
        self.assertIn("HL001", r.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
