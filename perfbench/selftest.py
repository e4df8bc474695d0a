"""Self-tests of the benchmark harness.

Usage, from the root of a knowgrow checkout:

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose: it starts dozens of
interpreter processes.  Scratch files go under ``.perfbench-out/``.
"""
from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

import checks
import gen
import run
import tracer
import workloads as wl

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, run.OUT_DIR)


def _scratch() -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH)


def _bench_json() -> dict:
    with open(os.path.join(run.HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.dir = _scratch()
        self.addCleanup(shutil.rmtree, self.dir, True)

    def _files(self, workload: str, seed: int) -> str:
        work = os.path.join(self.dir, f"{workload}-{seed}-{len(os.listdir(self.dir))}")
        gen.generate(workload, seed, "tiny", work)
        return os.path.join(work, "in")

    def test_deterministic_per_seed_and_seed_dependent(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                a, b, c = self._files(workload, 3), self._files(workload, 3), self._files(workload, 4)
                names = sorted(os.listdir(a))
                self.assertEqual(names, sorted(os.listdir(b)))
                _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
                self.assertEqual((mismatch, errors), ([], []))
                inputs = [n for n in names if n != "truth.json"]
                _, mismatch, _ = filecmp.cmpfiles(a, c, inputs, shallow=False)
                self.assertTrue(mismatch, "seeds 3 and 4 gave identical inputs")


class CheckerTest(unittest.TestCase):
    """Run one tiny pass per workload, then tamper with one count per report."""

    # path to one integer field per command; a changed value must be rejected
    COUNTS = {
        "ba": ("undirected_edges",),
        "metrics": ("arcs",),
        "taxonomy": ("categories",),
        "disrupt": ("top", 0, "n_i"),
        "intersect": ("rows", 0, "a_count"),
        "segment": ("break_index",),
        "forecast": ("forecast", "values"),
        "fit": ("ranking",),
    }

    def test_rejects_one_changed_count(self):
        for workload in wl.WORKLOADS:
            work = _scratch()
            self.addCleanup(shutil.rmtree, work, True)
            runner = run.Runner(ROOT, work, time.monotonic() + run.DEADLINE_S)
            truth, _, _ = run.generate(runner, workload, 5, "tiny")
            size = wl.SIZES["tiny"]
            checker = run.Checker(runner, size, 5, truth, None)
            cmds = wl.commands(workload, work, size, 5)
            run.run_pass(runner, cmds, checker)
            self.assertEqual(runner.errors, [])
            for name, _ in cmds:
                with self.subTest(workload=workload, command=name):
                    report_path, plot_path = wl.out_paths(work, name)
                    with open(report_path, "rb") as fh:
                        doc = json.load(fh)
                    with open(plot_path, "rb") as fh:
                        plot = fh.read()
                    errs, summary = checks.check_report(name, json.dumps(doc).encode(), plot,
                                                        size, 5, truth, None)
                    self.assertEqual(errs, [])
                    # the default-seed comparison accepts an unchanged summary
                    self.assertEqual(checks.diff(summary, json.loads(json.dumps(summary))), [])
                    *path, last = self.COUNTS[name]
                    target = doc["payload"]
                    for key in path:
                        target = target[key]
                    if isinstance(target[last], list):
                        target[last] = target[last][:-1]  # one entry fewer
                    else:
                        target[last] += 3
                    errs, _ = checks.check_report(name, json.dumps(doc).encode(), plot,
                                                  size, 5, truth, summary)
                    self.assertTrue(errs, f"changed {self.COUNTS[name]} was accepted")


class DiffTest(unittest.TestCase):
    def test_exact_ints_and_tolerant_floats(self):
        self.assertEqual(checks.diff({"a": 1, "x": 1.0}, {"a": 1, "x": 1.0 + 1e-9}), [])
        self.assertTrue(checks.diff({"a": 2, "x": 1.0}, {"a": 1, "x": 1.0}))
        self.assertTrue(checks.diff({"a": 1, "x": 1.001}, {"a": 1, "x": 1.0}))
        self.assertTrue(checks.diff({"ids": ["p1", "p2"]}, {"ids": ["p2", "p1"]}))
        self.assertTrue(checks.diff({"flag": 1}, {"flag": True}))


class SpanTest(unittest.TestCase):
    def test_self_time_and_sum(self):
        spans = [
            [0, None, 0, "cli.fit", 0.0, 10.0, None],
            [1, 0, 0, "fitting.select", 1.0, 9.0, None],
            [2, 1, 0, "fitting.fit_points", 2.0, 5.0, None],
            [3, 1, 0, "fitting.fit_points", 5.0, 8.0, None],
        ]
        selfs, errors = tracer.self_times(spans)
        self.assertEqual(selfs, [2.0, 2.0, 3.0, 3.0])
        self.assertEqual(errors, [])
        spans[3][5] = 9.5  # ends after its parent
        self.assertTrue(tracer.self_times(spans)[1])


class EndToEndTest(unittest.TestCase):
    def _run(self, *argv: str) -> subprocess.CompletedProcess:
        script = os.path.join(run.HERE, "run.py")
        return subprocess.run([sys.executable, script, *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=170)

    def test_every_workload_passes_at_tiny_size(self):
        bench = _bench_json()
        want = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
        self.assertEqual([w["name"] for w in bench["workloads"]], list(wl.WORKLOADS))
        for workload in wl.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = self._run("--workload", workload, "--seed", "7", "--seconds", "0",
                                     "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]), want[trace])

    def test_refuses_to_run_outside_a_checkout(self):
        bare = _scratch()
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.HERE, os.pardir, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "long", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
