"""Structural metrics on directed snapshot graphs.

The graph container holds arcs over dense integer node ids, with numpy CSR
adjacency arrays ``(indptr, indices)``; the traversals and the triangle
count run on numpy alone, and scipy is imported only for the special
functions of the tail fits.  Loaders intern string labels, which a graph
keeps as bytes and decodes only when read.  Metrics follow the
conventions of scale-free network analysis: directed density E/(N(N-1)),
Shannon entropy of the degree histogram, BFS-sampled effective diameter
and mean distance over reachable ordered pairs, mean local clustering on
the undirected projection, and maximum-likelihood tail fits (discrete
power law with KS-minimizing k_min in the style of Clauset et al., and
lognormal).

Both distance metrics read one seeded traversal: a histogram of distances
from the sampled sources (every node when exhaustive), computed once per
graph by a bit-parallel multi-source BFS that sweeps the sources a bounded
number of 64-bit words at a time, in O(n + arcs) memory.

A graph built from mirrored arcs records that it is ``symmetric``:
``from_edges(..., mirror=True)`` (the ``--undirected`` edge-list loader) and
``ba.generate``.  Its out-adjacency is then also its in-adjacency and its
undirected projection, so the BFS and the clustering coefficient reuse
``out_csr()`` instead of building in-rows or a mirrored graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._brent import bounded_min, hits_bound

__all__ = [
    "SnapshotGraph",
    "PowerlawFit",
    "LognormalFit",
    "density",
    "mean_degree",
    "degree_entropy",
    "normalized_structural_entropy",
    "effective_diameter",
    "avg_shortest_path",
    "clustering_coefficient",
    "empirical_ccdf",
    "powerlaw_ccdf",
    "powerlaw_fit",
    "lognormal_fit",
]

_DIRECTIONS = ("in", "out", "total")


def _index_dtype(n: int) -> type:
    """The dtype of a graph's arc ends, held for the graph's life: int32 below 2**31 nodes."""
    return np.int32 if n < 2**31 else np.int64


@dataclass
class SnapshotGraph:
    """Directed graph of one corpus snapshot.

    Arcs are deduplicated and self-loops are dropped from the adjacency at
    construction; both removals are counted and reported.  All metric
    edge counts therefore refer to the cleaned arc set.  ``symmetric``
    records that every arc's reverse is an arc too.  ``names`` holds the
    UTF-8 bytes of the node labels, each followed by a TAB.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    names: np.ndarray | None = field(default=None, repr=False)
    self_loop_count: int = 0
    duplicate_count: int = 0
    symmetric: bool = False
    _out: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    _distances: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_edges(
        cls,
        edges: np.ndarray | list[tuple[int, int]],
        n: int | None = None,
        names: np.ndarray | None = None,
        mirror: bool = False,
    ) -> "SnapshotGraph":
        """Graph of the ``(src, dst)`` rows, sorted by ``(src, dst)``; ``mirror=True``
        adds every row's reverse arc too, and records the graph as symmetric."""
        arr = np.asarray(edges).reshape(-1, 2)
        if n is None:
            n = int(arr.max()) + 1 if arr.size else 1
        if n < 1:
            raise ValueError("graph needs at least one node")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError(f"edge endpoint outside [0, {n})")
        keep = arr[:, 0] != arr[:, 1]
        self_loops = (len(arr) - int(np.count_nonzero(keep))) * (1 + mirror)
        src, dst = arr[keep, 0].astype(np.int64), arr[keep, 1].astype(np.int64)
        codes = src * n + dst
        if mirror:
            codes = np.concatenate([codes, dst * n + src])
        del keep, src, dst
        codes.sort()  # by (src, dst)
        first = np.ones(len(codes), bool)
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        codes = codes[first]
        del first
        index = _index_dtype(n)
        dst = (codes % n).astype(index)
        codes //= n
        return cls(
            n=n,
            src=codes.astype(index),
            dst=dst,
            names=names,
            self_loop_count=self_loops,
            duplicate_count=len(arr) * (1 + mirror) - self_loops - len(dst),
            symmetric=mirror,
        )

    @cached_property
    def labels(self) -> list[str] | None:
        """The node labels, decoded from ``names`` when first read."""
        return None if self.names is None else self.names.tobytes().decode().split("\t")[:-1]

    @property
    def arc_count(self) -> int:
        return int(len(self.src))

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``: node v's out-neighbours are ``indices[indptr[v]:indptr[v + 1]]``.

        Arcs sorted by source, as ``from_edges`` leaves them, are the rows
        as they stand; others (``ba.generate``'s) are sorted first.
        """
        if self._out is None:
            if np.all(self.src[1:] >= self.src[:-1]):
                rows = np.arange(self.n + 1, dtype=self.src.dtype)
                self._out = np.searchsorted(self.src, rows), self.dst
            else:
                self._out = _csr(self.src, self.dst, self.n)
        return self._out

    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the in-adjacency: node v's in-neighbours in row v."""
        return self.out_csr() if self.symmetric else _csr(self.dst, self.src, self.n)

    def degrees(self, direction: str = "total") -> np.ndarray:
        if direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        if direction == "total":
            return self.degrees("out") + self.degrees("in")
        return np.bincount(self.src if direction == "out" else self.dst, minlength=self.n)

    def undirected_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the undirected projection: the mirrored graph's out-rows."""
        if self.symmetric:
            return self.out_csr()
        return SnapshotGraph.from_edges(np.column_stack([self.src, self.dst]), self.n,
                                        mirror=True).out_csr()


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the distinct ``(rows, cols)`` pairs over n nodes,
    each row's columns sorted."""
    codes = rows * np.int64(n) + cols
    codes.sort()
    index = np.int32 if max(n, len(codes)) < 2**31 else np.int64
    indptr = np.searchsorted(codes, np.arange(n + 1) * np.int64(n)).astype(index)
    return indptr, np.remainder(codes, n, out=codes).astype(index)


def density(g: SnapshotGraph) -> float:
    """Directed density E / (N (N - 1)), self-loops excluded from E."""
    if g.n < 2:
        raise ValueError("density needs at least 2 nodes")
    return g.arc_count / (g.n * (g.n - 1))


def mean_degree(g: SnapshotGraph) -> float:
    """Arcs per node, E / N."""
    return g.arc_count / g.n


def degree_entropy(g: SnapshotGraph, direction: str = "total") -> float:
    """Shannon entropy (natural log) of the empirical degree histogram."""
    deg = g.degrees(direction)
    _, counts = np.unique(deg, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def normalized_structural_entropy(g: SnapshotGraph, direction: str = "total") -> float:
    """Degree entropy divided by ln N; lies in [0, 1]."""
    if g.n < 2:
        raise ValueError("normalized entropy needs at least 2 nodes")
    return degree_entropy(g, direction) / math.log(g.n)


# one dense BFS level of a sweep holds about this many values
BLOCK_VALUES = 1 << 20


# ---------------------------------------------------------------------------
# BFS-sampled distance metrics


def _distance_histogram(g: SnapshotGraph, sources: int, seed: int) -> np.ndarray:
    """Counts of finite distances d >= 1 from BFS sources, indexed by d.

    Every node is a source when ``sources >= n`` (exhaustive, seed-free);
    otherwise sources are drawn without replacement from a seeded generator.
    Sources are traversed in sweeps of up to 64 per ``uint64`` word, with
    only as many words per node as keep a dense level, (n + arcs) * words
    values, within ``BLOCK_VALUES``; memory stays O(n + arcs) even when
    exhaustive.  Kept on the graph: both distance metrics read one pass.
    """
    if sources < 1:
        raise ValueError("need at least one BFS source")
    exhaustive = sources >= g.n
    key = (min(sources, g.n), None if exhaustive else seed)
    hist = g._distances.get(key)
    if hist is None:
        if exhaustive:
            chosen = np.arange(g.n)
        else:
            rng = np.random.default_rng(seed)
            chosen = np.sort(rng.choice(g.n, size=sources, replace=False))
        out, inn = g.out_csr(), g.in_csr()
        words = min(-(-len(chosen) // 64), max(1, BLOCK_VALUES // (g.n + g.arc_count)))
        hist = np.zeros(g.n, dtype=np.int64)
        for lo in range(0, len(chosen), 64 * words):
            _bfs_sweep(out, inn, chosen[lo : lo + 64 * words], hist)
        hist[0] = 0
        g._distances[key] = hist
    return hist


# a level expands only its frontier's out-arcs (top-down) while those, counted
# once per (node, word) entry, are fewer than this share of a dense bottom-up
# level's (n + arcs) * words; otherwise every node ORs its in-neighbours'
# words.  Counting nodes instead would send an exhaustive sweep of a long
# path, one bit per node, to the dense step.  0.2 is about the ratio of the
# two steps' costs per counted value (11-19 ns against 42-82 ns, numpy 2.4
# on 2 vCPUs, on scale-free and strip graphs of 6e4-1e5 nodes).
TOP_DOWN_SHARE = 0.2

# a bottom-up level ORs its in-rows in blocks that gather at most this many
# words (one in-row longer than that is a block of its own)
BOTTOM_UP_VALUES = 1 << 16


def _bfs_sweep(out: tuple[np.ndarray, np.ndarray], inn: tuple[np.ndarray, np.ndarray],
               chosen: np.ndarray, hist: np.ndarray) -> None:
    """Add the distances from the ``chosen`` sources, 64 per word, to ``hist``.

    Multi-source BFS (Then et al., VLDB 2014): source i owns bit i % 64 of
    word i // 64 of every node, so one level advances all sources at once.
    The frontier is kept sparse, as (node * words + word, bits) entries; each
    level takes the cheaper of a top-down and a bottom-up step (Beamer et
    al., SC 2012).  ``out`` and ``inn`` are the ``(indptr, indices)`` of the
    out- and in-adjacency.
    """
    (out_ptr, out_idx), (in_ptr, in_idx) = out, inn
    n = len(out_ptr) - 1
    words = -(-len(chosen) // 64)
    outdeg = np.diff(out_ptr)
    in_rows = np.flatnonzero(np.diff(in_ptr))  # reduceat copies, not zeroes, empty rows
    in_starts = np.append(in_ptr[in_rows], len(in_idx))
    blocks, step = [0], max(1, BOTTOM_UP_VALUES // words)
    while blocks[-1] < len(in_rows):
        last = int(np.searchsorted(in_starts, in_starts[blocks[-1]] + step, side="right")) - 1
        blocks.append(max(last, blocks[-1] + 1))
    dense_work = (n + len(out_idx)) * words
    seen = np.zeros(n * words, dtype=np.uint64)
    i = np.arange(len(chosen))
    keys = chosen * words + i // 64
    bits = np.left_shift(np.uint64(1), (i % 64).astype(np.uint64))
    seen[keys] = bits
    d = 0
    while len(keys):
        hist[d] += int(np.bitwise_count(bits).sum())
        d += 1
        nodes = keys // words
        deg = outdeg[nodes]
        if deg.sum() < TOP_DOWN_SHARE * dense_work:
            ends = np.cumsum(deg)
            arcs = np.arange(ends[-1]) - np.repeat(ends - deg - out_ptr[nodes], deg)
            to = out_idx[arcs]
            if words > 1:
                to = to * words + np.repeat(keys % words, deg)
            reached = np.repeat(bits, deg) & ~seen.take(to)
            hit = np.flatnonzero(reached != 0)
            # group the arcs by the entry they reach, to OR each group: entries
            # (< 2**31) are packed above arc positions (< 2**32), as one plain
            # sort is much faster than an argsort
            order = np.sort(to[hit].astype(np.int64) << 32 | np.arange(len(hit)))
            to, reached = order >> 32, reached[hit[order & 0xFFFFFFFF]]
            heads = np.flatnonzero(np.diff(to, prepend=-1) != 0)
            keys = to[heads]
            bits = np.bitwise_or.reduceat(reached, heads)
        else:
            frontier = np.zeros((n, words), dtype=np.uint64)
            frontier.reshape(-1)[keys] = bits
            keys, bits = [np.empty(0, np.int64)], [np.empty(0, np.uint64)]
            for lo, hi in zip(blocks, blocks[1:]):
                a, b = in_starts[lo], in_starts[hi]
                new = np.bitwise_or.reduceat(frontier[in_idx[a:b]], in_starts[lo:hi] - a,
                                             axis=0)
                new &= ~seen.reshape(n, words)[in_rows[lo:hi]]
                flat = np.flatnonzero(new)
                keys.append(in_rows[lo + flat // words] * words + flat % words)
                bits.append(new.reshape(-1)[flat])
            keys, bits = np.concatenate(keys), np.concatenate(bits)
        seen[keys] |= bits


def effective_diameter(
    g: SnapshotGraph, quantile: float = 0.9, sources: int = 64, seed: int = 0
) -> int:
    """Smallest d covering >= ``quantile`` of reachable ordered pairs.

    Unreachable pairs are ignored; a graph with no reachable pairs has
    effective diameter 0.  Exhaustive when ``sources >= N``, otherwise based
    on seeded BFS sampling.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must lie in (0, 1]")
    hist = _distance_histogram(g, sources, seed)
    total = int(hist.sum())
    if total == 0:
        return 0
    rank = max(int(math.ceil(quantile * total)) - 1, 0)
    return int(np.searchsorted(np.cumsum(hist), rank, side="right"))


def avg_shortest_path(g: SnapshotGraph, sources: int = 64, seed: int = 0) -> float:
    """Mean distance over sampled reachable ordered pairs (0 if none)."""
    hist = _distance_histogram(g, sources, seed)
    total = int(hist.sum())
    return int(hist @ np.arange(g.n)) / total if total else 0.0


# the triangle count checks the 2-paths of the oriented graph in blocks of
# about this many (the 2-paths through one arc are never split)
WEDGE_VALUES = 1 << 16


def clustering_coefficient(g: SnapshotGraph) -> float:
    """Mean local clustering of the undirected projection.

    Nodes of degree < 2 contribute 0.  Triangles are counted over the
    degree-oriented adjacency (Schank & Wagner 2005): each edge points from
    its lower to its higher (degree, id) rank, so every node has
    O(sqrt(edges)) out-arcs.  Each 2-path a -> b -> c is checked for the arc
    a -> c by a binary search of the sorted arc codes a * n + c, about
    ``WEDGE_VALUES`` 2-paths at a time; a triangle is found once, at its
    lowest-ranked node, and credits each of its three nodes.
    """
    if g.n < 3:
        raise ValueError("clustering needs at least 3 nodes")
    n = g.n
    indptr, indices = g.undirected_csr()
    deg = np.diff(indptr)
    order = np.argsort(deg, kind="stable")
    rank = np.empty(n, indices.dtype)
    rank[order] = np.arange(n)
    lo, hi = np.repeat(rank, deg), rank[indices]  # each edge twice, as rank pairs
    up = lo < hi
    codes = lo[up] * np.int64(n) + hi[up]  # the oriented arcs a -> b, as a * n + b
    del rank, lo, hi, up
    codes.sort()
    starts = np.searchsorted(codes, np.arange(n + 1) * np.int64(n))
    width = np.diff(starts)  # out-arcs per rank
    heads = (codes % n).astype(indices.dtype)
    block = np.cumsum(width[heads]) // WEDGE_VALUES  # that of each arc's last 2-path
    bounds = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(block)]
    del block
    by_rank = np.zeros(n, np.int64)
    for first, last in zip(bounds, bounds[1:]):  # the arcs a -> b of one block
        b = heads[first:last]
        w = width[b]
        before = np.cumsum(w) - w
        arcs = np.arange(w.sum()) + np.repeat(starts[b] - before, w)  # b -> c
        key = np.repeat(codes[first:last] - b, w) + heads[arcs]  # a * n + c
        hit = codes.take(np.searchsorted(codes, key), mode="clip") == key
        key = key[hit]
        for nodes in (key // n, np.repeat(b, w)[hit], key % n):
            np.add.at(by_rank, nodes, 1)
    tri = np.empty(n)
    tri[order] = by_rank
    pairs = deg * (deg - 1.0) / 2
    return float(np.divide(tri, pairs, out=np.zeros(n), where=deg >= 2).mean())


# ---------------------------------------------------------------------------
# tail-distribution fits


@dataclass(frozen=True)
class PowerlawFit:
    exponent: float
    kmin: int
    ks_distance: float
    n_tail: int
    at_bound: bool  # the exponent ended at an end of its search range


@dataclass(frozen=True)
class LognormalFit:
    mu: float
    sigma: float
    ks_distance: float


MIN_TAIL = 50


def _discrete_powerlaw_mle(tail: np.ndarray, kmin: int) -> tuple[float, bool]:
    """Exponent maximizing the tail's likelihood, and whether it hit its search bound."""
    from scipy.special import zeta

    slog = float(np.log(tail).sum())
    n = len(tail)

    def nll(alpha: float) -> float:
        return alpha * slog + n * math.log(zeta(alpha, kmin))

    lo, hi, xatol = 1.05, 8.0, 1e-8
    alpha = float(bounded_min(nll, lo, hi, xatol)[0])
    return alpha, hits_bound(alpha, lo, hi, xatol)


def empirical_ccdf(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of the sorted sample ``xs`` and the share of ``xs`` >= each."""
    ks = np.unique(xs)
    return ks, 1.0 - np.searchsorted(xs, ks, side="left") / xs.size


def powerlaw_ccdf(
    tail: np.ndarray, kmin: int, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values of the sorted tail ``>= kmin``, its empirical CCDF and the fitted one."""
    from scipy.special import zeta

    ks, ccdf_emp = empirical_ccdf(tail)
    return ks, ccdf_emp, zeta(alpha, ks) / zeta(alpha, kmin)


def _powerlaw_ks(tail: np.ndarray, kmin: int, alpha: float) -> float:
    _, ccdf_emp, ccdf_fit = powerlaw_ccdf(tail, kmin, alpha)
    return float(np.abs(ccdf_fit - ccdf_emp).max())


def powerlaw_fit(degrees: np.ndarray, kmin: int | None = None) -> PowerlawFit:
    """Discrete maximum-likelihood power-law fit of a degree sample.

    The exponent maximizes the Hurwitz-zeta likelihood of the tail
    ``k >= kmin``; when ``kmin`` is None it is chosen to minimize the KS
    distance between empirical and fitted tail CDFs.  Requires ``kmin >= 1``
    and ``MIN_TAIL`` tail samples spanning more than one distinct value.
    """
    xs = np.sort(np.asarray(degrees, dtype=np.int64))
    xs = xs[xs >= 1]
    if kmin is not None:
        if kmin < 1:
            raise ValueError(f"kmin must be >= 1, got {kmin}")
        tail = xs[xs >= kmin]
        if len(tail) < MIN_TAIL:
            raise ValueError(f"fewer than {MIN_TAIL} samples >= kmin={kmin}")
        if np.unique(tail).size < 2:
            raise ValueError("degenerate tail: all degrees equal")
        alpha, at_bound = _discrete_powerlaw_mle(tail, kmin)
        return PowerlawFit(alpha, int(kmin), _powerlaw_ks(tail, kmin, alpha), len(tail), at_bound)

    best: PowerlawFit | None = None
    for candidate in np.unique(xs)[:-1]:
        tail = xs[np.searchsorted(xs, candidate):]
        if len(tail) < MIN_TAIL:
            break
        alpha, at_bound = _discrete_powerlaw_mle(tail, int(candidate))
        ks = _powerlaw_ks(tail, int(candidate), alpha)
        if best is None or ks < best.ks_distance:
            best = PowerlawFit(alpha, int(candidate), ks, len(tail), at_bound)
    if best is None:
        raise ValueError(f"insufficient tail: need {MIN_TAIL} samples above some kmin")
    return best


def lognormal_fit(samples: np.ndarray) -> LognormalFit:
    """Lognormal MLE: mu and sigma are moments of the log-values.

    ``sigma`` is the population standard deviation (the MLE), so constant
    samples give sigma 0.  KS distance compares the empirical CDF with the
    fitted lognormal CDF.
    """
    from scipy.special import ndtr

    x = np.asarray(samples, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 samples")
    if np.any(x <= 0):
        raise ValueError("lognormal samples must be positive")
    logs = np.log(x)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=0))
    xs = np.sort(x)
    if sigma == 0.0:
        fitted = (xs >= math.exp(mu)).astype(float)
    else:
        fitted = ndtr((np.log(xs) - mu) / sigma)
    n = xs.size
    upper = np.arange(1, n + 1) / n - fitted
    lower = fitted - np.arange(0, n) / n
    ks = float(max(upper.max(), lower.max()))
    return LognormalFit(mu, sigma, ks)
