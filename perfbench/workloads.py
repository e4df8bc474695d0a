"""Workload definitions shared by the harness, the input generator and the checks.

Standard library only: the harness process imports this module and must stay
small, because a child started with vfork/exec inherits the parent's peak RSS
in its ``ru_maxrss``.
"""
from __future__ import annotations

import os

# One pass of a part takes 7-14 s on a 2-CPU machine (python 3.11): big
# enough that each command's time is dominated by its kernels, small enough
# that two passes of a workload (two parts, 11-24 s) fit a run of 55 s.
# "tiny" is for the self-tests.
SIZES = {
    "full": {
        "ba_nodes": 100_000, "ba_m": 3,
        "sf_nodes": 100_000, "sf_lines": 300_000, "sf_loops": 30, "sf_dups": 300,
        "lp_rows": 100, "lp_cols": 600,
        "tax_categories": 5000, "tax_hub_articles": 15_000, "tax_other_articles": 15_000,
        "cit_papers": 20_000, "cit_refs": 5, "cit_top": 1000, "id_set": 2000,
        "months": 600, "break_at": 200, "forecast_months": 60,
    },
    "tiny": {
        "ba_nodes": 2000, "ba_m": 3,
        "sf_nodes": 2000, "sf_lines": 6000, "sf_loops": 5, "sf_dups": 20,
        "lp_rows": 8, "lp_cols": 40,
        "tax_categories": 200, "tax_hub_articles": 400, "tax_other_articles": 300,
        "cit_papers": 1000, "cit_refs": 5, "cit_top": 50, "id_set": 100,
        "months": 120, "break_at": 40, "forecast_months": 12,
    },
}

# A part is one generated input set and the commands run on it; its index in
# PARTS seeds its generator.  A workload runs the commands of its parts in
# order.  Both workloads run ``metrics``, on graphs of opposite shape, so a
# traversal change that trades one shape for the other shows on both.
PARTS = ("scalefree", "longpath", "academic", "series")
WORKLOADS = {
    # heavy-tailed inputs: a scale-free graph, a hub category, hub references
    "hubs": ("scalefree", "academic"),
    # long inputs: a graph of diameter ~440 and a 600-month series
    "long": ("longpath", "series"),
}

SERIES_ORIGIN = "1975-01"
TAXONOMY_DEPTH = 4
PERCENTILES = (5.0, 10.0, 20.0)

# Planted category cycles: one self-parent category plus chains of these
# lengths, all among the newest categories so no other path closes them.
CYCLE_LENGTHS = (1, 2, 3, 4)


def input_paths(work: str) -> dict[str, str]:
    d = os.path.join(work, "in")
    return {
        "sf_edges": os.path.join(d, "scalefree.tsv"),
        "lp_edges": os.path.join(d, "longpath.tsv"),
        "categories": os.path.join(d, "categories.tsv"),
        "papers": os.path.join(d, "papers.tsv"),
        "cites": os.path.join(d, "cites.tsv"),
        "ids_a": os.path.join(d, "ids_a.txt"),
        "ids_b": os.path.join(d, "ids_b.txt"),
        "ids_ctop": os.path.join(d, "ids_ctop.txt"),
        "series": os.path.join(d, "series.csv"),
        "truth": os.path.join(d, "truth.json"),
    }


def out_paths(work: str, command: str) -> tuple[str, str]:
    d = os.path.join(work, "out")
    return os.path.join(d, f"{command}.json"), os.path.join(d, f"{command}.csv")


def commands(workload: str, work: str, size: dict, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's ``knowgrow`` invocations, in order, as (name, argv)."""
    return [c for part in WORKLOADS[workload] for c in part_commands(part, work, size, seed)]


def part_commands(part: str, work: str, size: dict, seed: int) -> list[tuple[str, list[str]]]:
    """The part's ``knowgrow`` invocations, in order, as (name, argv)."""
    p = input_paths(work)

    def cmd(name: str, *argv: str) -> tuple[str, list[str]]:
        report, plot = out_paths(work, name)
        return name, [name, *argv, "--quiet", "--json", report, "--plot-csv", plot]

    if part == "scalefree":
        return [
            cmd("ba", "--nodes", str(size["ba_nodes"]), "--m", str(size["ba_m"]),
                "--seed", str(seed)),
            cmd("metrics", "--edges", p["sf_edges"], "--undirected"),
        ]
    if part == "longpath":
        return [cmd("metrics", "--edges", p["lp_edges"], "--undirected")]
    if part == "academic":
        return [
            cmd("taxonomy", "--edges", p["categories"], "--preset", "wag_core",
                "--depth", str(TAXONOMY_DEPTH), "--cycles"),
            cmd("disrupt", "--nodes", p["papers"], "--edges", p["cites"],
                "--key", "disruption", "--top", str(size["cit_top"])),
            cmd("intersect", "--a", p["ids_a"], "--b", p["ids_b"], "--ctop", p["ids_ctop"],
                "--percentiles", ",".join(f"{x:g}" for x in PERCENTILES)),
        ]
    if part == "series":
        fit_report, _ = out_paths(work, "fit")
        return [
            cmd("fit", "--input", p["series"], "--family", "auto"),
            cmd("forecast", "--fit", fit_report, "--until", series_until(size)),
            cmd("segment", "--input", p["series"]),
        ]
    raise ValueError(f"unknown part {part!r}")


def month_add(month: str, k: int) -> str:
    year, mon = int(month[:4]), int(month[5:7])
    total = year * 12 + mon - 1 + k
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


def series_until(size: dict) -> str:
    return month_add(SERIES_ORIGIN, size["months"] + size["forecast_months"] - 1)
