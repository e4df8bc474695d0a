"""Run every workload, untraced and traced, and print each run's tables.

Usage, from the root of a knowgrow checkout:

    python3 perfbench/all.py [--seed N] [--seconds S]

Prints, for each workload, every end-to-end metric with its unit and the
per-layer table of the traced run.  Exits non-zero if any run fails or is
not correct.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=55)
    args = ap.parse_args()
    status = 0
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            print(proc.stdout, end="")
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
            print()
    return status


if __name__ == "__main__":
    sys.exit(main())
