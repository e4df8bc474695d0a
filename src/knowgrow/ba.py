"""Preferential-attachment (Barabasi-Albert) baseline graphs.

The generator grows a graph from an m-clique; every arriving node attaches
to m distinct existing nodes with probability proportional to degree,
sampled O(1) per draw from an urn of edge endpoints.  The urn is the edge
list itself, one flat list of edge ends in arrival order.  Duplicate
targets are rejected and redrawn.  The result is exposed as a directed
:class:`~knowgrow.graph_metrics.SnapshotGraph` with mirrored arcs, recorded
as symmetric, so the one metrics engine serves both real and simulated
snapshots.

``theory`` supplies the closed-form reference column for such graphs
(density m/n, diameter ln N/ln ln N, clustering (ln N)^2/N, degree law
P(k) = 2 m^2 k^-3) and ``compare`` tabulates empirical-to-reference ratios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .graph_metrics import (
    SnapshotGraph,
    _index_dtype,
    clustering_coefficient,
    effective_diameter,
    powerlaw_fit,
)

__all__ = ["BAParams", "BATheory", "generate", "theory", "compare", "DEFAULT_BANDS"]


@dataclass(frozen=True)
class BAParams:
    n: int
    m: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.n > self.m >= 1:
            raise ValueError(f"require n > m >= 1, got n={self.n}, m={self.m}")

    @property
    def edge_count(self) -> int:
        """Undirected edges after full growth: m(n-m) + m(m-1)/2."""
        return self.m * (self.n - self.m) + self.m * (self.m - 1) // 2


def generate(params: BAParams) -> SnapshotGraph:
    """Grow a preferential-attachment graph; bit-identical per seed.

    The undirected edge list is materialized as symmetric arcs, so the
    snapshot has ``2 * params.edge_count`` arcs and out-degrees equal to
    undirected degrees.
    """
    n, m = params.n, params.m
    rng = np.random.default_rng(params.seed)
    # the seeded uniform stream, drawn in blocks of 2^16 as Python floats
    draws = chain.from_iterable(rng.random(1 << 16).tolist() for _ in count())
    # the urn is the edge list: ends 2i and 2i+1 are edge i, in arrival order
    urn = [end for i in range(m) for j in range(i + 1, m) for end in (i, j)]
    for v in range(m, n):
        chosen = [] if urn else [0]  # m = 1: the single seed node carries no edges yet
        while len(chosen) < m:
            u = urn[int(next(draws) * len(urn))]
            if u not in chosen:
                chosen.append(u)
        for u in sorted(chosen):
            urn += (u, v)

    ends = np.array(urn, _index_dtype(n))
    del urn
    src, dst = ends[0::2], ends[1::2]
    # arcs are simple, loop-free and mirrored by construction: skip from_edges' dedup
    return SnapshotGraph(n=n, src=np.concatenate([src, dst]), dst=np.concatenate([dst, src]),
                         symmetric=True)


@dataclass(frozen=True)
class BATheory:
    """Closed-form reference values for a preferential-attachment graph."""

    n: int
    m: int
    density: float
    effective_diameter: float
    clustering: float


def theory(params: BAParams) -> BATheory:
    if params.n < 10:
        raise ValueError("reference formulas assume n >= 10")
    n = params.n
    ln = math.log(n)
    return BATheory(
        n=n,
        m=params.m,
        density=params.m / n,
        effective_diameter=ln / math.log(ln),
        clustering=ln * ln / n,
    )


#: Acceptable empirical/reference ratio bands, per metric.
DEFAULT_BANDS: dict[str, tuple[float, float]] = {
    "density": (0.9, 1.1),
    "effective_diameter": (0.5, 2.0),
    "clustering": (0.2, 5.0),
    "powerlaw_exponent": (0.9, 1.1),
}


def compare(g: SnapshotGraph, params: BAParams, sources: int = 64) -> dict:
    """Empirical metrics of a generated graph against the theory column.

    ``g`` must have been produced by :func:`generate` with ``params``: the
    density row halves the symmetric arc count to recover undirected edges.
    Returns a JSON-ready report with one row per metric, the ratio to its
    reference, and a flag for ratios outside its band in ``DEFAULT_BANDS``.
    """
    ref = theory(params)
    undirected_edges = g.arc_count // 2
    emp_density = undirected_edges / (g.n * (g.n - 1))
    emp_diameter = effective_diameter(g, quantile=0.9, sources=sources, seed=params.seed)
    emp_clustering = clustering_coefficient(g)
    pl = powerlaw_fit(g.degrees("out"))

    rows = []
    for name, emp, reference in [
        ("density", emp_density, ref.density),
        ("effective_diameter", float(emp_diameter), ref.effective_diameter),
        ("clustering", emp_clustering, ref.clustering),
        ("powerlaw_exponent", pl.exponent, 3.0),
    ]:
        ratio = emp / reference
        lo, hi = DEFAULT_BANDS[name]
        rows.append(
            {
                "metric": name,
                "empirical": emp,
                "reference": reference,
                "ratio": ratio,
                "band": [lo, hi],
                "within_band": bool(lo <= ratio <= hi),
            }
        )
    return {
        "n": params.n,
        "m": params.m,
        "seed": params.seed,
        "undirected_edges": undirected_edges,
        "powerlaw_kmin": pl.kmin,
        "rows": rows,
    }
