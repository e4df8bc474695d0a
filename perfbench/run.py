"""knowgrow benchmark: per-command wall time, set-up time and peak memory.

Usage, from the root of a knowgrow checkout:

    python3 perfbench/run.py --workload hubs --seed 0 --seconds 55 --trace 0

Every command runs the way users run it: one fresh ``python -m knowgrow.cli``
process with ``--quiet --json --plot-csv`` writing into a temporary
directory.  The harness times each process, reads its peak RSS with
``os.wait4`` and checks every report (see ``checks.py``).  It cycles through
the workload's command sequence: at least two whole passes, then further
commands while the next is expected to end within ``--seconds``.  It reports
medians per command; ``job_s`` is the sum of the commands' medians.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
pass and then the same commands in one traced worker (``tracer.py``) and
prints the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Details (all samples,
environment, spans) go to ``.perfbench-out/`` in the checkout.

This process imports only the standard library: a child started with
vfork/exec inherits its parent's peak RSS in ``ru_maxrss``, so the harness
must stay small for ``peak_rss_mb`` to mean the command's own peak.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
DEFAULT_SEED = 0
SETUP_SAMPLES = 3  # before the passes, and as many after them
MIN_PASSES = 2
DEADLINE_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = [("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class Timeout(Exception):
    pass


class Runner:
    """Starts processes one at a time and counts operations and failures."""

    def __init__(self, root: str, work: str, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        # a user's result cache must never turn a run into a cache hit
        self.env.pop("KNOWGROW_CACHE_DIR", None)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str]:
        """Run one process to completion: (wall s, peak RSS MB, exit code, stderr)."""
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise Timeout("time budget exhausted")
        err_path = os.path.join(self.work, "stderr.txt")
        self.attempted += 1
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(budget, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if time.monotonic() >= self.deadline:
            self.fail(f"killed at the time budget: {' '.join(argv[1:4])}")
            raise Timeout("time budget exhausted")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr

    def knowgrow(self, argv: list[str]) -> tuple[float, float, int, str]:
        return self.spawn([sys.executable, "-m", "knowgrow.cli", *argv])

    def version(self) -> float:
        """Wall time of a fresh ``knowgrow --version``: one set-up sample."""
        wall, _, code, stderr = self.knowgrow(["--version"])
        if code != 0:
            self.fail(f"--version: exit {code}: {stderr.strip()[-500:]}")
        return wall


class Checker:
    """Checks each command's outputs; later passes must repeat the first byte for byte."""

    def __init__(self, runner: Runner, size: dict, seed: int, truth: dict, expected: dict | None):
        self.runner, self.size, self.seed, self.truth = runner, size, seed, truth
        self.expected = expected
        self.first: dict[str, tuple[str, list[str]]] = {}
        self.summaries: dict[str, dict] = {}

    def check(self, name: str) -> None:
        report_path, plot_path = wl.out_paths(self.runner.work, name)
        try:
            with open(report_path, "rb") as fh:
                report = fh.read()
            with open(plot_path, "rb") as fh:
                plot = fh.read()
        except OSError as exc:
            self.runner.fail(f"{name}: missing output: {exc}")
            return
        digest = hashlib.sha256(report + b"\0" + plot).hexdigest()
        if name not in self.first:
            want = None if self.expected is None else self.expected.get(name)
            errs, summary = checks.check_report(name, report, plot, self.size, self.seed,
                                                self.truth, want)
            self.first[name] = (digest, errs)
            if summary is not None:
                self.summaries[name] = summary
        elif digest != self.first[name][0]:
            errs = [f"{name}: report or plot differs from the first pass's bytes"]
        else:
            errs = self.first[name][1]
        if errs:
            self.runner.fail("; ".join(errs))


def run_command(runner: Runner, name: str, argv: list[str], checker: Checker
                ) -> tuple[float, float]:
    """Run one command and check its outputs: (wall s, peak RSS MB)."""
    for path in wl.out_paths(runner.work, name):
        if os.path.exists(path):
            os.unlink(path)
    wall, peak, code, stderr = runner.knowgrow(argv)
    if code != 0:
        runner.fail(f"{name}: exit {code}: {stderr.strip()[-500:]}")
    else:
        checker.check(name)
    return wall, peak


def run_pass(runner: Runner, cmds, checker: Checker) -> None:
    """One checked pass over the command sequence."""
    for name, argv in cmds:
        run_command(runner, name, argv, checker)


def run_traced(runner: Runner, cmds, checker: Checker, spans_out: str) -> dict:
    spec = os.path.join(runner.work, "trace_spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"commands": cmds, "out": spans_out}, fh)
    for name, _ in cmds:
        for path in wl.out_paths(runner.work, name):
            if os.path.exists(path):
                os.unlink(path)
    runner.attempted += len(cmds) - 1  # one worker process runs every command
    _, _, code, stderr = runner.spawn([sys.executable, os.path.join(HERE, "tracer.py"), spec])
    if code != 0:
        runner.fail(f"traced worker: exit {code}: {stderr.strip()[-500:]}")
        return {}
    with open(spans_out, encoding="utf-8") as fh:
        doc = json.load(fh)
    for (name, _), c in zip(cmds, doc["exit_codes"]):
        if c != 0:
            runner.fail(f"traced {name}: exit {c}")
        else:
            checker.check(name)
    return doc


def layer_metrics(doc: dict, untraced: dict[str, float], setup_s: float, runner: Runner) -> dict:
    """Per-layer self times and counts from the traced worker's spans."""
    spans = doc["spans"]
    selfs, errors = tracer.self_times(spans)
    for e in errors:
        runner.fail(f"trace: {e}")
    self_s = collections.Counter()
    calls = collections.Counter()
    work = collections.defaultdict(collections.Counter)
    for span, st in zip(spans, selfs):
        self_s[span[3]] += st
        calls[span[3]] += 1
        work[span[3]].update(span[6] or {})
    if work["dataio.cache_get"]["hits"]:
        runner.fail("trace: the result cache was hit")
    roots = {s[3]: s[5] - s[4] for s in spans if s[1] is None}
    overhead = sum(t - (untraced[n[4:]] - setup_s) for n, t in roots.items())
    edge_s = self_s["dataio.load_edge_list"]
    special = {
        "dataio.load_edge_list.rows_per_s":
            work["dataio.load_edge_list"]["rows"] / edge_s if edge_s else 0.0,
        "graph_metrics.bfs_sources": sum(work[n]["sources"] for n in
                                         ("graph_metrics.effective_diameter",
                                          "graph_metrics.avg_shortest_path")),
        "cli.import_s": doc["import_s"],
        "trace.overhead_s": overhead,
    }
    out = {}
    for name, unit, *_ in tracer.LAYERS:
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = float(self_s[name[: -len(".self_s")]])
        else:
            value = calls[name[: -len(".calls")]]
        out[name] = {"value": value, "unit": unit}
    return {"metrics": out, "spans": {n: {"self_s": self_s[n], "calls": calls[n]}
                                      for n in sorted(self_s)}}


def generate(runner: Runner, workload: str, seed: int, size_name: str) -> tuple[dict, dict, float]:
    """Run the generator process; returns (truth, library versions, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), workload, str(seed), size_name,
         runner.work],
        env=runner.env, cwd=runner.root, capture_output=True, text=True,
        timeout=max(1.0, runner.deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr.strip()}")
    with open(wl.input_paths(runner.work)["truth"], encoding="utf-8") as fh:
        truth = json.load(fh)
    return truth, json.loads(proc.stdout), time.perf_counter() - t0


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50..p99.9 with at least ten samples beyond it (nearest rank)."""
    xs = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return p, xs[min(len(xs) - 1, int(len(xs) * p / 100.0))]
    return None


def describe(values: list[float]) -> dict:
    tail = tail_percentile(values)
    return {"median": statistics.median(values), "samples": len(values),
            "percentile": None if tail is None else {"p": tail[0], "value": tail[1]}}


def bench(args, root: str, work: str) -> tuple[dict, dict]:
    size = wl.SIZES[args.size]
    runner = Runner(root, work, time.monotonic() + DEADLINE_S)
    truth, versions, gen_s = generate(runner, args.workload, args.seed, args.size)
    expected = None
    if args.seed == DEFAULT_SEED and args.size == "full":
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            by_part = json.load(fh)
        expected = {name: summary for part in wl.WORKLOADS[args.workload]
                    for name, summary in by_part[part].items()}
    checker = Checker(runner, size, args.seed, truth, expected)
    cmds = wl.commands(args.workload, work, size, args.seed)

    runner.version()  # warm-up: byte-compiles src/ in a fresh checkout
    # set-up samples before and after the passes, so they come from two
    # moments of a machine whose speed drifts
    setup = [runner.version() for _ in range(SETUP_SAMPLES)]
    walls: dict[str, list[float]] = {name: [] for name, _ in cmds}
    peaks: dict[str, list[float]] = {name: [] for name, _ in cmds}
    t0 = time.perf_counter()
    # one pass when tracing; else at least MIN_PASSES, then each further
    # command only if it should end within --seconds
    for k in range(len(cmds) if args.trace else sys.maxsize):
        name, argv = cmds[k % len(cmds)]
        if (k >= MIN_PASSES * len(cmds) and
                time.perf_counter() - t0 + statistics.median(walls[name]) > args.seconds):
            break
        wall, peak = run_command(runner, name, argv, checker)
        walls[name].append(wall)
        peaks[name].append(peak)
    setup += [runner.version() for _ in range(SETUP_SAMPLES)]

    samples = {"setup_s": setup, **{f"{name}_s": walls[name] for name, _ in cmds}}
    passes = min(map(len, walls.values()))
    stats = {
        # the whole sequence's time, as the sum of the commands' medians
        "job_s": {"median": sum(statistics.median(v) for v in walls.values()),
                  "samples": passes, "percentile": None},
        # the highest of the commands' median peaks
        "peak_rss_mb": {"median": max(statistics.median(v) for v in peaks.values()),
                        "samples": passes, "percentile": None},
        **{k: describe(v) for k, v in samples.items()},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(), **versions,
            "threads": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        },
        "gen_s": gen_s,
        "stats": stats,
        "samples": {**samples, "peak_rss_mb": peaks},
        "summaries": checker.summaries,
    }
    if args.trace:
        spans_out = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        doc = run_traced(runner, cmds, checker, spans_out)
        untraced = {n: walls[n][0] for n, _ in cmds}
        layers = layer_metrics(doc, untraced, statistics.median(setup), runner) if doc else None
        details["layers"] = layers
        metrics = layers["metrics"] if layers else {}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    details["errors"] = runner.errors
    result = {"correct": runner.failed == 0 and bool(metrics), "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, details


def print_report(details: dict, result: dict) -> None:
    env = details["environment"]
    print(f"perfbench {details['workload']} seed={details['seed']} size={details['size']} "
          f"trace={details['trace']} passes={details['stats']['job_s']['samples']} "
          f"inputs generated in {details['gen_s']:.2f} s")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':<16}{'unit':>6}{'median':>12}{'n':>4}  tail percentile")
    units = dict(END_TO_END)
    for name, st in details["stats"].items():
        tail = st["percentile"]
        tail_s = "-" if tail is None else f"p{tail['p']:g}={tail['value']:.4f}"
        print(f"{name:<16}{units.get(name, 's'):>6}{st['median']:>12.4f}{st['samples']:>4}  "
              f"{tail_s}")
    if details.get("layers"):
        print(f"\n{'layer metric':<52}{'unit':>6}{'value':>14}  moves / exercised by")
        for name, unit, _, moves, used in tracer.LAYERS:
            v = details["layers"]["metrics"][name]["value"]
            print(f"{name:<52}{unit:>6}{v:>14.6g}  {moves} / {used}")
        print(f"\n{'span':<52}{'calls':>8}{'self_s':>12}")
        for name, st in details["layers"]["spans"].items():
            print(f"{name:<52}{st['calls']:>8}{st['self_s']:>12.6f}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                    help="input size; 'tiny' is for the benchmark's self-tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "knowgrow", "cli.py")):
        print("perfbench: src/knowgrow/cli.py not found; run from the root of a knowgrow "
              "checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        result, details = bench(args, root, work)
    except (Timeout, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in details["errors"]:
        print(f"perfbench: failed: {e}", file=sys.stderr)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**details, "result": result}, fh, indent=1)
    print_report(details, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
