#!/usr/bin/env python3
"""Contract suite for the homp-advise CLI, run under ctest.

Contract under test (docs/OBSERVABILITY.md "The offline advisor"):
  * on a Fig. 6-style session with a scripted degrade fault, `report`
    ranks the degraded device's under-prediction as the top finding with
    a nonzero estimated saving that matches the attribution formula
    replicated on the runtime's own telemetry;
  * the report is byte-identical across repeated invocations and across
    the two identical seeded runs' artifacts (determinism contract);
  * cross-run merging marks a finding seen in every run persistent;
  * a trace-only `report` mines the same under-prediction from the
    trace's decision instants; a trace next to its audit adds no second
    copy of that evidence;
  * every exported file (traces, metrics, adversarial labels) is valid
    JSON, and identical seeded runs export byte-identical files;
  * `summary` figures agree with the runtime's own telemetry — notably
    imbalance_pct against Imbalance::percent() — and with the
    hand-computed ground truth of the static and tenant fixtures;
  * `diff` of two identical sessions exits 0; direction-aware regressions
    (throughput down, latency up) exit 1; improvements stay exit 0;
    traces diff by their summaries;
  * usage/degenerate input exits 2 with a one-line diagnostic, never a
    traceback, never a silent empty "all clear" report.

Needs the built binaries: pass --fixtures-bin (make_advise_fixtures) and
--advise-bin (homp-advise), as the ctest entries do. Trailing test class
names select a part: ctest `advise_cli` runs Report, Diff and
ErrorContract, ctest `trace_cli` runs ExportedJson, TraceReport, Summary
and TraceDiff; with no names every class runs.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
STATIC_FIXTURE = os.path.join(HERE, "fixtures", "static_trace.json")
TENANT_FIXTURE = os.path.join(HERE, "fixtures", "tenant_trace.json")

FIXTURES_BIN = None  # set by main()
ADVISE_BIN = None  # set by main()
WORK = None  # tempdir holding generated fixtures
TRUTH = {}  # key=value ground truth printed by the generator


def advise(*args):
    return subprocess.run(
        [ADVISE_BIN, *args], capture_output=True, text=True)


def out_path(name):
    return os.path.join(WORK.name, name)


def write_doc(name, doc):
    path = out_path(name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


SESSION = ["run1.audit.json", "run1.metrics.json", "run1.trace.json",
           "run2.audit.json", "run2.metrics.json", "run2.trace.json",
           "serve.audit.json"]


def session_paths():
    return [out_path(n) for n in SESSION]


# Generated for the summary and diff cases (see make_advise_fixtures.cpp).
TRACE_FILES = ["dyn1.trace.json", "dyn1.metrics.json", "dyn2.trace.json",
               "dyn2.metrics.json", "adversarial.trace.json",
               "adversarial.metrics.json", "serve.trace.json",
               "servefail.trace.json"]


def parse_summary(stdout):
    """`key: value` lines -> dict (values kept as strings)."""
    rep = {}
    for line in stdout.splitlines():
        if ": " in line:
            key, val = line.split(": ", 1)
            rep[key] = val
    return rep


def setUpModule():
    global WORK, TRUTH
    WORK = tempfile.TemporaryDirectory(prefix="homp_advise_test_")
    r = subprocess.run([FIXTURES_BIN, WORK.name],
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise RuntimeError("make_advise_fixtures failed: %s" % r.stderr)
    for line in r.stdout.splitlines():
        key, _, val = line.partition("=")
        try:
            TRUTH[key] = float(val)
        except ValueError:
            TRUTH[key] = val


def tearDownModule():
    WORK.cleanup()


class ExportedJson(unittest.TestCase):
    def test_every_exported_file_round_trips_json_loads(self):
        for name in SESSION + TRACE_FILES:
            with self.subTest(file=name):
                with open(out_path(name), encoding="utf-8") as f:
                    doc = json.load(f)
                self.assertTrue(doc)

    def test_adversarial_labels_survive_intact(self):
        # The escaped control characters decode back to the original
        # bytes the runtime put into the labels.
        with open(out_path("adversarial.trace.json"), encoding="utf-8") as f:
            doc = json.load(f)
        names = " ".join(e.get("name", "") for e in doc)
        devices = " ".join(e.get("args", {}).get("device", "") for e in doc)
        self.assertIn('quote" backslash\\ newline\n tab\t bell\x07', names)
        self.assertIn('dev"0\\\n', devices)

    def test_identical_seeded_runs_export_byte_identical_files(self):
        pairs = [("run%d.%s.json", kind) for kind in
                 ("audit", "metrics", "trace")]
        pairs += [("dyn%d.%s.json", kind) for kind in ("metrics", "trace")]
        for pattern, kind in pairs:
            with self.subTest(file=pattern % (1, kind)):
                a = out_path(pattern % (1, kind))
                b = out_path(pattern % (2, kind))
                self.assertTrue(filecmp.cmp(a, b, shallow=False),
                                "%s export is not deterministic" % kind)


class Report(unittest.TestCase):
    """The acceptance gate: attribution on the degrade-fault session."""

    def report_json(self, *extra):
        r = advise("report", *session_paths(), "--json", *extra)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        return json.loads(r.stdout)

    def test_degraded_under_prediction_is_the_top_finding(self):
        doc = self.report_json()
        self.assertEqual(doc["homp_advise_version"], 1)
        self.assertTrue(doc["findings"])
        top = doc["findings"][0]
        self.assertEqual(top["kind"], "under_prediction")
        self.assertEqual(top["device"], TRUTH["degraded_device"])
        self.assertGreater(top["saving_s"], 0.0)
        expected = TRUTH["expected_saving_s"]
        self.assertLessEqual(abs(top["saving_s"] - expected),
                             1e-9 * max(expected, 1e-12),
                             "saving %.17g vs attribution-formula ground "
                             "truth %.17g" % (top["saving_s"], expected))
        # An 8x degrade on a static split gates well over 10% of the
        # makespan: the finding must be critical.
        self.assertGreaterEqual(expected, 0.10 * TRUTH["run_total_time_s"])
        self.assertEqual(top["severity"], "critical")

    def test_cross_run_merge_marks_persistence(self):
        top = self.report_json()["findings"][0]
        self.assertEqual(top["runs_present"], 2)
        self.assertEqual(top["runs_total"], 2)
        self.assertTrue(top["persistent"])
        self.assertIn("persistent across 2 runs", top["evidence"])

    def test_evidence_carries_bias_and_metrics_corroboration(self):
        top = self.report_json()["findings"][0]
        self.assertIn("slower than MODEL_2 predicted", top["evidence"])
        # The session's metrics files carry model-accuracy series for the
        # device; the finding must cite them.
        self.assertIn("session metrics", top["evidence"])
        self.assertTrue(top["knob"])

    def test_report_is_byte_identical_across_ten_invocations(self):
        for flags in ((), ("--json",)):
            with self.subTest(flags=flags):
                outs = set()
                for _ in range(10):
                    r = advise("report", *session_paths(), *flags)
                    self.assertEqual(r.returncode, 1, r.stderr)
                    outs.add(r.stdout)
                self.assertEqual(len(outs), 1,
                                 "report output is not deterministic")

    def test_text_report_shape(self):
        r = advise("report", *session_paths())
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("ranked by estimated virtual-time saving", r.stdout)
        self.assertIn("1. [critical] under_prediction @ %s"
                      % TRUTH["degraded_device"], r.stdout)
        self.assertIn("evidence:", r.stdout)
        self.assertIn("knob:", r.stdout)

    def test_top_caps_the_finding_list(self):
        doc = self.report_json("--top", "1")
        self.assertEqual(len(doc["findings"]), 1)
        r = advise("report", *session_paths(), "--top", "1")
        self.assertEqual(r.returncode, 1)
        self.assertIn("showing top 1", r.stdout)

    def test_bias_threshold_gates_the_prediction_findings(self):
        doc = self.report_json("--bias-threshold", "1000")
        kinds = {f["kind"] for f in doc["findings"]}
        self.assertNotIn("under_prediction", kinds)
        self.assertNotIn("over_prediction", kinds)

    def test_single_run_session_still_ranks_the_degraded_device(self):
        r = advise("report", out_path("run1.audit.json"), "--json")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        top = json.loads(r.stdout)["findings"][0]
        self.assertEqual(top["kind"], "under_prediction")
        self.assertEqual(top["device"], TRUTH["degraded_device"])
        # Single-eligible-run findings carry no persistence note.
        self.assertNotIn(" runs", top["evidence"])

    def test_clean_serve_audit_alone_reports_no_findings(self):
        r = advise("report", out_path("serve.audit.json"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("no findings", r.stdout)


class TraceReport(unittest.TestCase):
    """A trace alone carries decision evidence: its decision instants
    and barrier finishes go through the same audit formulas."""

    def test_finds_the_degraded_device_from_the_trace_alone(self):
        r = advise("report", out_path("run1.trace.json"), "--json")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["homp_advise_version"], 1)
        top = doc["findings"][0]
        self.assertEqual(top["kind"], "under_prediction")
        self.assertEqual(top["device"], TRUTH["degraded_device"])
        self.assertEqual(top["severity"], "critical")
        self.assertGreater(top["saving_s"], 0.0)
        kinds = {f["kind"] for f in doc["findings"]}
        self.assertIn("critical_path_blame", kinds)

    def test_text_mode_and_determinism(self):
        outs = set()
        for _ in range(3):
            r = advise("report", out_path("run1.trace.json"))
            self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
            outs.add(r.stdout)
        self.assertEqual(len(outs), 1)
        self.assertIn("1. [critical] under_prediction @ %s"
                      % TRUTH["degraded_device"], next(iter(outs)))

    def test_high_threshold_silences_prediction_findings(self):
        r = advise("report", out_path("run1.trace.json"),
                   "--bias-threshold", "1e9", "--json")
        kinds = {f["kind"] for f in json.loads(r.stdout)["findings"]}
        self.assertNotIn("under_prediction", kinds)
        self.assertNotIn("over_prediction", kinds)

    def test_metrics_file_alone_is_rejected(self):
        r = advise("report", out_path("run1.metrics.json"))
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("homp-advise:", r.stderr)

    def test_two_traces_merge_like_two_audits(self):
        r = advise("report", out_path("run1.trace.json"),
                   out_path("run2.trace.json"), "--json")
        top = json.loads(r.stdout)["findings"][0]
        self.assertEqual(top["kind"], "under_prediction")
        self.assertEqual((top["runs_present"], top["runs_total"]), (2, 2))

    def test_trace_next_to_its_audit_adds_no_decision_evidence(self):
        # The audit already holds every decision the trace repeats: the
        # pair is one decision run, so no persistence note appears.
        r = advise("report", out_path("run1.audit.json"),
                   out_path("run1.trace.json"), "--json")
        top = json.loads(r.stdout)["findings"][0]
        self.assertEqual(top["kind"], "under_prediction")
        self.assertEqual(top["runs_total"], 1)
        self.assertLessEqual(abs(top["saving_s"] - TRUTH["expected_saving_s"]),
                             1e-9 * TRUTH["expected_saving_s"])


class Summary(unittest.TestCase):
    """`summary`: the trace figures of the paper's evaluation (per-phase
    time, load imbalance, hidden transfer), tenant and failure
    sections, counter tracks and the instant timeline."""

    def summary(self, *paths):
        r = advise("summary", *paths)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        return parse_summary(r.stdout)

    def test_agrees_with_runtime_telemetry(self):
        rep = self.summary(out_path("dyn1.trace.json"))
        imb = float(rep["imbalance_pct"])
        truth = TRUTH["dyn_imbalance_pct"]
        self.assertLessEqual(abs(imb - truth), 1e-6 * max(truth, 1.0),
                             "CLI imbalance %g vs runtime %g" % (imb, truth))
        self.assertEqual(float(rep["devices"]), TRUTH["dyn_devices"])
        self.assertEqual(float(rep["decisions"]), TRUTH["dyn_decisions"])
        total = float(rep["total_time_us"])
        self.assertAlmostEqual(total, TRUTH["dyn_total_time_s"] * 1e6,
                               delta=1e-6 * total)
        self.assertGreater(float(rep["critical_path_us"]), 0.0)
        ratio = float(rep["overlap_ratio"])
        self.assertGreaterEqual(ratio, 0.0)
        self.assertLessEqual(ratio, 1.0)
        self.assertLessEqual(float(rep["transfer_hidden_us"]),
                             float(rep["transfer_us"]) + 1e-9)

    def test_counter_tracks_and_metrics_sections(self):
        r = advise("summary", out_path("dyn1.trace.json"),
                   out_path("dyn1.metrics.json"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        rep = parse_summary(r.stdout)
        counter_keys = [k for k in rep if k.startswith("counter[")]
        self.assertTrue(counter_keys, "no counter tracks in the summary")
        self.assertTrue(any("queue depth" in k for k in counter_keys))
        # Metrics files, recognised by content, print as the merged
        # registry's Prometheus exposition.
        lines = r.stdout.splitlines()
        self.assertIn("metrics:", lines)
        self.assertIn("homp_offloads_total 1", lines)
        self.assertTrue(any(line.startswith("homp_device_chunks_total{")
                            for line in lines))

    def test_adversarial_trace_is_summarized(self):
        r = advise("summary", out_path("adversarial.trace.json"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        rep = parse_summary(r.stdout)
        self.assertEqual(float(rep["devices"]), 2)
        self.assertEqual(float(rep["faults"]), 1)
        lines = r.stdout.splitlines()
        self.assertIn("timeline:", lines)
        # Names carry a quote, a backslash and a newline: each summary
        # line still holds exactly one `key: value`, and the name comes
        # through escaped but otherwise intact.
        for line in lines[:lines.index("timeline:")]:
            self.assertEqual(line.count(": "), 1, line)
            key, val = line.split(": ", 1)
            self.assertTrue(key and val, line)
        self.assertEqual(float(rep['counter[queue depth (dev"0\\\\\\n)]'
                                   '.samples']), 1)
        self.assertEqual(rep["critical_device"], 'dev"1\\\\\\n')

    def test_static_fixture_known_figures(self):
        # Hand-computed ground truth: finish times 6/8/10 us, transfers
        # 6 us of which 2 us hide behind same-device compute.
        r = advise("summary", STATIC_FIXTURE)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        rep = parse_summary(r.stdout)
        self.assertAlmostEqual(float(rep["imbalance_pct"]), 20.0)
        self.assertAlmostEqual(float(rep["barrier_skew_us"]), 4.0)
        self.assertEqual(rep["critical_device"], "gpu1")
        self.assertAlmostEqual(float(rep["critical_path_us"]), 10.0)
        self.assertAlmostEqual(float(rep["total_time_us"]), 10.0)
        self.assertAlmostEqual(float(rep["overlap_ratio"]), 1.0 / 3.0)
        self.assertEqual(float(rep["devices"]), 3)
        self.assertEqual(float(rep["decisions"]), 1)
        self.assertEqual(float(rep["counter[queue depth (cpu)].samples"]), 2)
        self.assertEqual(float(rep["counter[queue depth (cpu)].max"]), 1)
        self.assertIn("  t=0us cpu decision: decision: chunk-assigned "
                      "[0,100)", r.stdout.splitlines())

    def test_tenant_sections(self):
        # Two-tenant fixture: gold runs job threads finishing at 4 and
        # 8 us (25% finish imbalance), bronze one thread over [2, 8).
        rep = self.summary(TENANT_FIXTURE)
        self.assertEqual(float(rep["tenants"]), 2)
        self.assertEqual(float(rep["tenant[gold].spans"]), 2)
        self.assertEqual(float(rep["tenant[gold].threads"]), 2)
        self.assertAlmostEqual(float(rep["tenant[gold].busy_us"]), 12.0)
        self.assertAlmostEqual(float(rep["tenant[gold].critical_path_us"]),
                               8.0)
        self.assertAlmostEqual(float(rep["tenant[gold].makespan_us"]), 8.0)
        self.assertAlmostEqual(float(rep["tenant[gold].imbalance_pct"]), 25.0)
        self.assertEqual(float(rep["tenant[bronze].spans"]), 1)
        self.assertAlmostEqual(float(rep["tenant[bronze].busy_us"]), 6.0)
        self.assertAlmostEqual(float(rep["tenant[bronze].makespan_us"]), 6.0)
        self.assertAlmostEqual(float(rep["tenant[bronze].imbalance_pct"]),
                               0.0)

    def test_single_offload_summaries_have_no_tenant_keys(self):
        # Runtime traces put every span on pid 0 with no process
        # metadata: no tenant keys may appear.
        rep = self.summary(out_path("dyn1.trace.json"))
        self.assertNotIn("tenants", rep)
        self.assertFalse([k for k in rep if k.startswith("tenant[")])

    def test_real_serving_trace_has_tenant_sections(self):
        rep = self.summary(out_path("serve.trace.json"))
        self.assertGreaterEqual(float(rep["tenants"]), 2)
        self.assertIn("tenant[gold].spans", rep)
        self.assertIn("tenant[bronze].spans", rep)

    def test_failure_fixture_sections(self):
        # One poison kFail (all_devices_lost) and one mid-run deadline
        # cancellation (deadline_miss).
        rep = self.summary(out_path("servefail.trace.json"))
        self.assertEqual(float(rep["serve.failed_jobs"]), 1)
        self.assertEqual(float(rep["serve.cancelled_jobs"]), 1)
        self.assertEqual(
            float(rep["serve.failed[poison/all_devices_lost]"]), 1)
        self.assertEqual(
            float(rep["serve.cancelled[slow/deadline_miss]"]), 1)
        fails = [k for k in rep if k.startswith("serve.failed_job[")]
        self.assertEqual(len(fails), 1)
        self.assertIn("tenant=poison", rep[fails[0]])
        self.assertIn("all_devices_lost:", rep[fails[0]])
        cancels = [k for k in rep if k.startswith("serve.cancelled_job[")]
        self.assertEqual(len(cancels), 1)
        self.assertIn("tenant=slow", rep[cancels[0]])

    def test_clean_traces_have_no_failure_section(self):
        # Neither a single-offload trace nor an all-success serving
        # trace may grow serve.* keys.
        for name in ("dyn1.trace.json", "serve.trace.json"):
            with self.subTest(file=name):
                rep = self.summary(out_path(name))
                self.assertFalse([k for k in rep if k.startswith("serve.")])

    def test_hand_built_counts_classes_and_escaping(self):
        serve_i = {"cat": "serve", "ph": "i", "s": "g", "pid": 1, "tid": 0}
        doc = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "t0"}},
            {"ph": "X", "name": "compute k", "pid": 1, "tid": 64,
             "ts": 0.0, "dur": 4.0},
            dict(serve_i, name="fail", ts=4.0,
                 args={"job": 1, "detail": "step_budget: over\nbudget"}),
            dict(serve_i, name="fail", ts=5.0,
                 args={"job": 2, "detail": "step_budget: again"}),
            dict(serve_i, name="cancel", ts=6.0,
                 args={"job": 3, "detail": "deadline_miss: in queue"}),
            dict(serve_i, name="breaker-open", ts=7.0,
                 args={"job": 0, "detail": "cooldown 1s"}),
        ]
        rep = self.summary(write_doc("servefail_static.json", doc))
        self.assertEqual(float(rep["serve.failed_jobs"]), 2)
        self.assertEqual(float(rep["serve.cancelled_jobs"]), 1)
        self.assertEqual(float(rep["serve.breaker_trips"]), 1)
        self.assertEqual(float(rep["serve.failed[t0/step_budget]"]), 2)
        self.assertEqual(float(rep["serve.cancelled[t0/deadline_miss]"]), 1)
        # Newlines inside an error collapse so `key: value` lines hold.
        self.assertEqual(rep["serve.failed_job[1]"],
                         "tenant=t0 step_budget: over budget")
        self.assertEqual(rep["serve.cancelled_job[3]"],
                         "tenant=t0 deadline_miss: in queue")


class TraceDiff(unittest.TestCase):
    """Traces diff by their summaries, under the diff exit contract:
    1 only when a directional key moved the wrong way."""

    def test_identical_runs_diff_clean(self):
        for kind in ("trace", "metrics"):
            with self.subTest(kind=kind):
                r = advise("diff", out_path("dyn1.%s.json" % kind),
                           out_path("dyn2.%s.json" % kind))
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                self.assertIn("identical within tolerance", r.stdout)

    def test_different_runs_diff_by_summary(self):
        # static -> dyn1 grows the makespan: a regression, exit 1.
        r = advise("diff", STATIC_FIXTURE, out_path("dyn1.trace.json"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        regressions = r.stdout.split("changes:")[0]
        self.assertIn("total_time_us", regressions)
        self.assertIn("critical_device=gpu1: only in A", r.stdout)
        # dyn1 -> static shrinks it (a change) but quadruples the
        # imbalance (a regression).
        r = advise("diff", out_path("dyn1.trace.json"), STATIC_FIXTURE)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        regressions, changes = r.stdout.split("changes:")
        self.assertIn("imbalance_pct", regressions)
        self.assertIn("total_time_us", changes)
        self.assertIn("critical_device=gpu1: only in B", changes)
        # Summary keys, not raw events: at most one line per key.
        keys = sum(len(parse_summary(advise("summary", p).stdout))
                   for p in (STATIC_FIXTURE, out_path("dyn1.trace.json")))
        self.assertLessEqual(len(r.stdout.splitlines()), keys + 3)

    def test_adversarial_names_stay_on_one_line(self):
        # The critical device's name ends in a newline: its text key is
        # escaped, so every entry is one indented `key: ...` line.
        r = advise("diff", out_path("adversarial.trace.json"),
                   out_path("dyn1.trace.json"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        for line in r.stdout.splitlines()[1:]:
            if line not in ("regressions:", "changes:"):
                self.assertTrue(line.startswith("  ") and ": " in line, line)
        self.assertIn('critical_device=dev"1\\\\\\n: only in A',
                      r.stdout)

    def test_tolerance_keeps_text_changes(self):
        # A huge relative tolerance swallows every numeric move but not
        # the changed critical device.
        r = advise("diff", STATIC_FIXTURE, out_path("dyn1.trace.json"),
                   "--tolerance", "1e9")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("critical_device=gpu1: only in A", r.stdout)
        self.assertNotIn("total_time_us", r.stdout)


class Diff(unittest.TestCase):
    def test_identical_artifacts_diff_clean(self):
        for kind in ("audit", "metrics"):
            with self.subTest(kind=kind):
                r = advise("diff", out_path("run1.%s.json" % kind),
                           out_path("run2.%s.json" % kind))
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                self.assertIn("identical within tolerance", r.stdout)

    def test_json_verdict_shape(self):
        r = advise("diff", out_path("run1.audit.json"),
                   out_path("run2.audit.json"), "--json")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        doc = json.loads(r.stdout)
        self.assertEqual(doc["homp_advise_diff_version"], 1)
        self.assertEqual(doc["regressions"], [])
        self.assertEqual(doc["changes"], [])

    BASE = {"bench": "engine", "results": [
        {"name": "s1", "events_per_sec": 100.0, "p99_launch_us": 5.0},
        {"name": "s2", "events_per_sec": 400.0, "p99_launch_us": 2.0}]}

    def bench(self, name, **overrides):
        doc = json.loads(json.dumps(self.BASE))
        doc["results"][0].update(overrides)
        return write_doc(name, doc)

    def test_throughput_drop_past_tolerance_is_a_regression(self):
        a = self.bench("bench_base.json")
        b = self.bench("bench_slow.json", events_per_sec=50.0)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("regressions:", r.stdout)
        self.assertIn("results/s1/events_per_sec", r.stdout)

    def test_throughput_gain_is_a_change_not_a_regression(self):
        a = self.bench("bench_base2.json")
        b = self.bench("bench_fast.json", events_per_sec=200.0)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("changes:", r.stdout)

    def test_latency_rise_past_tolerance_is_a_regression(self):
        a = self.bench("bench_base3.json")
        b = self.bench("bench_lat.json", p99_launch_us=50.0)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("results/s1/p99_launch_us", r.stdout)

    def test_tolerance_swallows_small_moves(self):
        a = self.bench("bench_base4.json")
        b = self.bench("bench_near.json", events_per_sec=90.0)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_structural_drift_is_reported_but_not_a_regression(self):
        a = self.bench("bench_base5.json")
        doc = json.loads(json.dumps(self.BASE))
        del doc["results"][1]
        b = write_doc("bench_missing.json", doc)
        r = advise("diff", a, b, "--tolerance", "0.15")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("only in A", r.stdout)
        r = advise("diff", b, a, "--json")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        (entry,) = [c for c in json.loads(r.stdout)["changes"]
                    if c["key"] == "results/s2/p99_launch_us"]
        self.assertTrue(entry["structural"])
        self.assertIsNone(entry["before"])
        self.assertEqual(entry["after"], 2)


class ErrorContract(unittest.TestCase):
    def assert_clean_exit_2(self, r, needle=""):
        """Exit 2 with a one-line diagnostic — never a traceback, never a
        quiet success."""
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertNotIn("Traceback", r.stderr)
        self.assertIn("homp-advise:", r.stderr)
        if needle:
            self.assertIn(needle, r.stderr)

    def test_missing_file(self):
        self.assert_clean_exit_2(
            advise("report", out_path("no_such_file.json")))

    def test_malformed_json(self):
        path = out_path("bad.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        self.assert_clean_exit_2(advise("report", path))

    def test_unknown_artifact_kind(self):
        path = write_doc("mystery.json", {"foo": 1})
        self.assert_clean_exit_2(advise("report", path), "mystery.json")

    def test_metrics_only_session(self):
        self.assert_clean_exit_2(
            advise("report", out_path("run1.metrics.json")),
            "no audits or traces")

    def test_empty_audit(self):
        path = write_doc("empty_audit.json", {"homp_audit_version": 1})
        self.assert_clean_exit_2(advise("report", path), "actual")

    def test_audit_without_backfilled_actuals(self):
        path = write_doc("noactuals.json", {
            "homp_audit_version": 1, "algorithm": "MODEL_2",
            "total_time_s": 1.0, "chunks_issued": 1,
            "devices": [{"name": "gpu0", "id": 1, "slot": 0,
                         "finish_time_s": 1.0, "chunks": 1}],
            "decisions": [{"time_s": 0.0, "slot": 0, "device": "gpu0",
                           "kind": "chunk-assigned", "begin": 0, "end": 10,
                           "model2_s": 0.5, "actual_s": -1.0}]})
        self.assert_clean_exit_2(advise("report", path), "actual_s")

    def test_report_without_files(self):
        self.assert_clean_exit_2(advise("report"), "at least one")

    def test_diff_wants_exactly_two_files(self):
        self.assert_clean_exit_2(
            advise("diff", out_path("run1.audit.json")), "exactly two")

    def test_diff_rejects_mixed_kinds(self):
        self.assert_clean_exit_2(
            advise("diff", out_path("run1.audit.json"),
                   out_path("run1.metrics.json")), "different artifact kinds")

    def test_top_must_be_a_whole_number(self):
        for bad in ("-1", "2.7", "nan"):
            with self.subTest(top=bad):
                self.assert_clean_exit_2(
                    advise("report", out_path("run1.audit.json"), "--top",
                           bad), "--top")

    def test_summary_rejects_metrics_only(self):
        self.assert_clean_exit_2(
            advise("summary", out_path("run1.metrics.json")),
            "at least one trace")

    def test_summary_rejects_other_artifacts(self):
        self.assert_clean_exit_2(
            advise("summary", out_path("run1.audit.json")), "audit")

    def test_summary_missing_file(self):
        self.assert_clean_exit_2(
            advise("summary", out_path("no_such_file.json")))

    def test_summary_invalid_json(self):
        path = out_path("bad_summary.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        self.assert_clean_exit_2(advise("summary", path))

    def test_diff_rejects_trace_against_metrics(self):
        self.assert_clean_exit_2(
            advise("diff", out_path("dyn1.trace.json"),
                   out_path("dyn1.metrics.json")), "different artifact kinds")

    def assert_malformed_trace(self, name, doc, needle):
        """report, summary and diff all refuse the trace with exit 2."""
        path = write_doc(name, doc)
        for args in (("report", path), ("summary", path),
                     ("diff", path, out_path("dyn1.trace.json"))):
            with self.subTest(mode=args[0]):
                self.assert_clean_exit_2(advise(*args), needle)

    def test_empty_trace(self):
        self.assert_malformed_trace("empty.json", [], "empty")

    def test_zero_span_trace(self):
        doc = [{"ph": "M", "name": "thread_name", "tid": 0,
                "args": {"name": "host"}}]
        self.assert_malformed_trace("nospans.json", doc, "no spans")

    def test_span_missing_tid(self):
        doc = [{"ph": "X", "name": "compute k", "ts": 0.0, "dur": 1.0}]
        self.assert_malformed_trace("notid.json", doc, "tid")

    def test_span_non_integer_tid(self):
        doc = [{"ph": "X", "name": "compute k", "tid": 0.5, "ts": 0.0}]
        self.assert_malformed_trace("floattid.json", doc, "tid")

    def test_span_non_numeric_ts(self):
        doc = [{"ph": "X", "name": "compute k", "tid": 0, "ts": "soon"}]
        self.assert_malformed_trace("badts.json", doc, "ts")

    def test_non_object_event(self):
        self.assert_malformed_trace("nonobj.json", ["zap"], "not an object")

    def test_non_integer_pid(self):
        doc = [{"ph": "X", "name": "compute k", "tid": 0, "ts": 0.0,
                "dur": 1.0, "pid": "gold"}]
        self.assert_malformed_trace("badpid.json", doc, "pid")

    def test_multi_tenant_metadata_without_spans(self):
        # Degenerate serving trace: tenant processes declared, zero
        # spans. The exit-2 contract holds for tenant traces too.
        doc = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                "args": {"name": "gold"}}]
        self.assert_malformed_trace("tenants_only.json", doc, "no spans")

    def test_degenerate_diff(self):
        # A degenerate trace on either side refuses the comparison.
        self.assert_clean_exit_2(
            advise("diff", out_path("dyn1.trace.json"),
                   write_doc("empty_b.json", [])), "empty")

    def test_malformed_metrics_entry(self):
        path = write_doc("badmetrics.json",
                         {"homp_metrics_version": 1, "metrics": [{"value": 3}]})
        self.assert_clean_exit_2(
            advise("summary", out_path("dyn1.trace.json"), path), "name")
        self.assert_clean_exit_2(
            advise("report", out_path("run1.trace.json"), path), "name")

    def test_unknown_mode_and_flags(self):
        self.assert_clean_exit_2(advise("frobnicate"), "unknown mode")
        self.assert_clean_exit_2(
            advise("report", out_path("run1.audit.json"), "--wat"),
            "unknown argument")
        self.assert_clean_exit_2(
            advise("report", out_path("run1.audit.json"),
                   "--bias-threshold", "0.5"))


def main():
    global FIXTURES_BIN, ADVISE_BIN
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixtures-bin", required=True,
                    help="path to the built make_advise_fixtures binary")
    ap.add_argument("--advise-bin", required=True,
                    help="path to the built homp-advise binary")
    args, rest = ap.parse_known_args()
    FIXTURES_BIN = args.fixtures_bin
    ADVISE_BIN = args.advise_bin
    unittest.main(argv=[sys.argv[0]] + rest)


if __name__ == "__main__":
    main()
