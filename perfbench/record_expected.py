"""Record ``expected.json``: report summaries of every workload at the default seed.

Usage, from the root of a knowgrow checkout whose outputs are trusted:

    python3 perfbench/record_expected.py

Runs one checked pass per workload at full size (invariants only) and writes
the summaries the default-seed check compares against, keyed by part.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import run
import workloads as wl


def main() -> int:
    root = os.getcwd()
    out_dir = os.path.join(root, run.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    expected = {}
    for workload in wl.WORKLOADS:
        work = tempfile.mkdtemp(prefix=f"record-{workload}-", dir=out_dir)
        try:
            runner = run.Runner(root, work, time.monotonic() + run.DEADLINE_S)
            truth, _, _ = run.generate(runner, workload, run.DEFAULT_SEED, "full")
            size = wl.SIZES["full"]
            checker = run.Checker(runner, size, run.DEFAULT_SEED, truth, None)
            run.run_pass(runner, wl.commands(workload, work, size, run.DEFAULT_SEED), checker)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if runner.failed:
            print("\n".join(runner.errors), file=sys.stderr)
            return 1
        # keyed by part, so a part keeps its record when workloads regroup parts
        for part in wl.WORKLOADS[workload]:
            expected[part] = {name: checker.summaries[name] for name, _ in
                              wl.part_commands(part, work, size, run.DEFAULT_SEED)}
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
