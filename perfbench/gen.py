"""Deterministic input generator for one benchmark workload.

Usage: python3 perfbench/gen.py WORKLOAD SEED SIZE WORKDIR

Writes the workload's input files under WORKDIR/in and a ``truth.json``
holding what the generator knows about them (planted counts, cycles, exact
taxonomy and intersection counts), which the checks compare reports with.
Runs in its own process so the harness never holds the inputs in memory.
Same (workload, seed, size) gives byte-identical files.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np
import scipy
from scipy.special import expi

import workloads as wl


def _labels(rng: np.random.Generator, n: int, prefix: str) -> list[str]:
    # opaque string ids: a random permutation, so label order says nothing
    return [f"{prefix}{v:x}" for v in rng.permutation(n).tolist()]


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _edge_lines(rng, src: np.ndarray, dst: np.ndarray, labels: list[str]) -> list[str]:
    order = rng.permutation(len(src))
    return [f"{labels[s]}\t{labels[d]}" for s, d in zip(src[order].tolist(), dst[order].tolist())]


def scalefree(rng, size: dict, paths: dict) -> dict:
    """Chung-Lu graph with weights i^(-1/2), plus planted self-loops and duplicates."""
    n, loops, dups = size["sf_nodes"], size["sf_loops"], size["sf_dups"]
    simple = size["sf_lines"] - loops - dups
    w = np.arange(1, n + 1, dtype=float) ** -0.5
    p = w / w.sum()
    src = np.empty(0, dtype=np.int64)
    dst = np.empty(0, dtype=np.int64)
    while True:
        draw = int(1.3 * simple) + 1000
        src = np.concatenate([src, rng.choice(n, size=draw, p=p)])
        dst = np.concatenate([dst, rng.choice(n, size=draw, p=p)])
        keep = src != dst
        src, dst = src[keep], dst[keep]
        codes = np.minimum(src, dst) * n + np.maximum(src, dst)
        _, first = np.unique(codes, return_index=True)
        if len(first) >= simple:
            first = np.sort(first)[:simple]
            src, dst = src[first], dst[first]
            break
    touched = np.unique(np.concatenate([src, dst]))
    loop_nodes = rng.choice(touched, size=loops, replace=False)
    dup_idx = rng.choice(simple, size=dups, replace=False)
    flip = rng.random(dups) < 0.5
    dup_src = np.where(flip, dst[dup_idx], src[dup_idx])
    dup_dst = np.where(flip, src[dup_idx], dst[dup_idx])
    all_src = np.concatenate([src, loop_nodes, dup_src])
    all_dst = np.concatenate([dst, loop_nodes, dup_dst])
    _write(paths["sf_edges"], _edge_lines(rng, all_src, all_dst, _labels(rng, n, "v")))
    # --undirected mirrors every line: each loop line gives two loop arcs,
    # each duplicate line two duplicate arcs
    return {"metrics": {"n": int(len(touched)), "arcs": 2 * simple,
                        "self_loops": 2 * loops, "duplicates_dropped": 2 * dups}}


def longpath(rng, size: dict, paths: dict) -> dict:
    """Triangulated strip lattice: right, down and down-right neighbours."""
    rows, cols = size["lp_rows"], size["lp_cols"]
    node = np.arange(rows * cols).reshape(rows, cols)
    pairs = [
        (node[:, :-1], node[:, 1:]),
        (node[:-1, :], node[1:, :]),
        (node[:-1, :-1], node[1:, 1:]),
    ]
    src = np.concatenate([a.ravel() for a, _ in pairs])
    dst = np.concatenate([b.ravel() for _, b in pairs])
    flip = rng.random(len(src)) < 0.5
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    _write(paths["lp_edges"], _edge_lines(rng, src, dst, _labels(rng, rows * cols, "x")))
    return {"metrics": {"n": rows * cols, "arcs": 2 * len(src), "self_loops": 0,
                        "duplicates_dropped": 0, "max_distance": rows - 1 + cols - 1}}


def _taxonomy(rng, size: dict, paths: dict) -> dict:
    roots = ["Mathematics", "Physics", "Chemistry", "Computer science", "Biology",
             "Material science", "Medicine", "Engineering"]
    n = size["tax_categories"]
    n_cycle = sum(wl.CYCLE_LENGTHS)
    names = roots + [f"Category:{v:x}" for v in rng.permutation(n - len(roots)).tolist()]
    parents: list[list[int]] = [[] for _ in range(n)]
    free = n - n_cycle  # the newest n_cycle categories form the planted cycles
    for i in range(len(roots), free):
        # the first categories hang under the roots, so every root is present
        first = i - len(roots) if i < 2 * len(roots) else int(rng.integers(0, i))
        parents[i].append(first)
        if i > 1 and rng.random() < 0.3:
            extra = int(rng.integers(0, i))
            if extra != first:
                parents[i].append(extra)
    cycles = []
    i = free
    for length in wl.CYCLE_LENGTHS:
        members = list(range(i, i + length))
        parents[members[0]].append(int(rng.integers(0, free)))
        for a, b in zip(members, members[1:]):
            parents[b].append(a)
        parents[members[0]].append(members[-1])  # the back edge closing the cycle
        cycles.append(sorted(names[m] for m in members))
        i += length

    articles: dict[int, list[int]] = {}
    hub = int(rng.integers(len(roots), min(free, 40)))
    n_hub, n_other = size["tax_hub_articles"], size["tax_other_articles"]
    for a in range(n_hub + n_other):
        cats = [hub] if a < n_hub else [int(rng.integers(0, n))]
        if rng.random() < 0.2:
            extra = int(rng.integers(0, n))
            if extra not in cats:
                cats.append(extra)
        articles[a] = cats
    art_names = _labels(rng, n_hub + n_other, "Article:")

    lines = [f"{names[c]}\t{names[p]}\tcategory" for c in range(n) for p in parents[c]]
    lines += [f"{art_names[a]}\t{names[c]}\tarticle" for a, cats in articles.items() for c in cats]
    _write(paths["categories"], [lines[k] for k in rng.permutation(len(lines)).tolist()])

    # expected counts per depth: BFS down the child links from the roots
    children: list[list[int]] = [[] for _ in range(n)]
    for c in range(n):
        for p in parents[c]:
            children[p].append(c)
    members_of: list[set[int]] = [set() for _ in range(n)]
    for a, cats in articles.items():
        for c in cats:
            members_of[c].add(a)
    seen = set(range(len(roots)))
    frontier = list(seen)
    per_level = []
    for level in range(wl.TAXONOMY_DEPTH + 1):
        if level:
            frontier = [w for u in frontier for w in children[u] if w not in seen]
            frontier = list(dict.fromkeys(frontier))
            seen.update(frontier)
        arts = set().union(*(members_of[c] for c in seen))
        per_level.append([level, len(seen), len(arts)])
    return {"levels": per_level, "cycles": sorted(cycles), "roots": roots}


def _citations(rng, size: dict, paths: dict) -> dict:
    n, k = size["cit_papers"], size["cit_refs"]
    old = n // 20  # the oldest 5 % receive 70 % of later references
    ids = [f"W{v:07d}" for v in rng.permutation(10 * n)[:n].tolist()]
    lines_e = []
    indeg = [0] * n
    for i in range(1, n):
        refs: set[int] = set()
        while len(refs) < min(k, i):
            if i > old and rng.random() < 0.7:
                refs.add(int(rng.integers(0, old)))
            else:
                refs.add(int(rng.integers(0, i)))
        for r in sorted(refs):
            lines_e.append(f"{ids[i]}\t{ids[r]}")
            indeg[r] += 1
    _write(paths["papers"], [f"{ids[i]}\t{1950 + (70 * i) // n}" for i in range(n)])
    _write(paths["cites"], [lines_e[j] for j in rng.permutation(len(lines_e)).tolist()])

    ctop = [ids[j] for j in rng.permutation(n).tolist()]
    pool = ids + [f"X{v:07d}" for v in range(n // 10)]  # some ids outside the ranking
    a = [pool[j] for j in rng.choice(len(pool), size=size["id_set"], replace=False).tolist()]
    b = [pool[j] for j in rng.choice(len(pool), size=size["id_set"], replace=False).tolist()]
    _write(paths["ids_a"], a)
    _write(paths["ids_b"], b)
    _write(paths["ids_ctop"], ctop)
    rows = []
    for pct in wl.PERCENTILES:
        prefix = set(ctop[: int(len(ctop) * pct / 100.0)])
        rows.append({"percentile": pct, "prefix_size": len(prefix),
                     "a_count": len(prefix & set(a)), "b_count": len(prefix & set(b))})
    return {
        "disrupt": {"papers": n, "citations": dict(zip(ids, indeg))},
        "intersect": {"a_size": len(set(a)), "b_size": len(set(b)), "ctop_size": n, "rows": rows},
    }


def academic(rng, size: dict, paths: dict) -> dict:
    return {"taxonomy": _taxonomy(rng, size, paths), **_citations(rng, size, paths)}


def _li(x: np.ndarray) -> np.ndarray:
    return expi(np.log(x)) - expi(np.log(2.0))


def series(rng, size: dict, paths: dict) -> dict:
    """polynomial3-shaped months up to the break, then Li-shaped, 0.2 % noise."""
    n, brk = size["months"], size["break_at"]
    t = np.arange(1, n + 1, dtype=float)
    early = 1000.0 + 50.0 * t + 0.5 * t**2 + 0.002 * t**3
    tb = float(brk)
    slope_late = 150.0 * np.log(tb + 10.0)
    late = early[brk - 1] + slope_late * (_li(t + 10.0) - _li(tb + 10.0))
    y = np.where(t <= tb, early, late) * (1.0 + 0.002 * rng.standard_normal(n))
    months = [wl.month_add(wl.SERIES_ORIGIN, i) for i in range(n)]
    _write(paths["series"], ["date,value"] + [f"{m},{v!r}" for m, v in zip(months, y.tolist())])
    return {"series": {"months": n, "break_at": brk, "origin": wl.SERIES_ORIGIN,
                       "forecast_months": size["forecast_months"]}}


GENERATORS = {"scalefree": scalefree, "longpath": longpath, "academic": academic,
              "series": series}


def generate(workload: str, seed: int, size_name: str, work: str) -> dict:
    paths = wl.input_paths(work)
    os.makedirs(os.path.dirname(paths["truth"]), exist_ok=True)
    truth = {}
    for part in wl.WORKLOADS[workload]:
        # seeded per (seed, part): one seed gives unrelated inputs to each part
        rng = np.random.default_rng([seed, wl.PARTS.index(part)])
        truth.update(GENERATORS[part](rng, wl.SIZES[size_name], paths))
    with open(paths["truth"], "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
    return truth


if __name__ == "__main__":
    workload, seed, size_name, work = sys.argv[1:5]
    generate(workload, int(seed), size_name, work)
    print(json.dumps({"numpy": np.__version__, "scipy": scipy.__version__}))
