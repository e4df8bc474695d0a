"""Independent reference implementations used to generate expected values.

Everything here is deliberately naive and structurally unrelated to the
package code it checks: fixed-step Simpson quadrature, a high-precision
decimal exponential integral, deque-based BFS,
per-focal set enumeration for disruption scores, level-by-level closure
for category counting, neighbour-pair enumeration and scipy's sparse
matrix products for clustering,
mutual reachability for strong components, a per-triple reading of a
category file's kinds, a joint trust-region
least-squares refinement over every growth-law parameter at once, an
exhaustive profile fit of both segments at every split of a series, a
line-by-line ``str`` reader of tab-separated files, and the canonical rows
of an edge list as Python's `sorted` orders them.
"""
from __future__ import annotations

import decimal
from collections import deque

import numpy as np
from scipy import sparse
from scipy.optimize import least_squares


def simpson_li(x: float, steps_per_segment: int = 4096) -> float:
    """Fixed-step composite Simpson value of int_2^x du/ln(u).

    The range is cut into dyadic segments [2,4], [4,8], ... so the fixed
    step stays proportional to the integrand's scale; the node set is
    fully predetermined (no adaptivity).
    """
    if x < 2.0:
        raise ValueError("x must be >= 2")
    if x == 2.0:
        return 0.0
    total = 0.0
    lo = 2.0
    while lo < x:
        hi = min(lo * 2.0, x)
        n = steps_per_segment  # even
        u = np.linspace(lo, hi, n + 1)
        f = 1.0 / np.log(u)
        h = (hi - lo) / n
        total += (h / 3.0) * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
        lo = hi
    return total


# Euler-Mascheroni constant to 60 digits
_EULER_60 = "0.577215664901532860606512090082402431042159335939923598805767"


def decimal_expi(x: float, digits: int = 40) -> float:
    """Ei(x) for x > 0 from ``γ + ln x + Σ x^k/(k·k!)`` in ``digits``-digit decimal.

    ``x`` converts exactly and every series term is positive.  Away from
    Ei's root near 0.3725 the float returned is Ei(x) correctly rounded,
    barring a near-tie.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        x = decimal.Decimal(x)
        term = total = x  # sum of x^k / (k k!), term k = x^k / k!
        k = 1
        while term / k > total.scaleb(-digits):
            k += 1
            term = term * x / k
            total += term / k
        return float(decimal.Decimal(_EULER_60) + x.ln() + total)


def bfs_distances(n: int, adjacency: dict[int, list[int]], source: int) -> list[int]:
    """Plain deque BFS; -1 marks unreachable nodes."""
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def all_pairs_stats(n: int, edges: list[tuple[int, int]]) -> tuple[int, float, list[int]]:
    """(exact reachable-pair diameter, mean distance, all pair distances)."""
    adjacency: dict[int, list[int]] = {}
    for s, d in edges:
        adjacency.setdefault(s, []).append(d)
    pooled: list[int] = []
    for src in range(n):
        for dist in bfs_distances(n, adjacency, src):
            if dist > 0:
                pooled.append(dist)
    if not pooled:
        return 0, 0.0, []
    return max(pooled), sum(pooled) / len(pooled), pooled


def local_clustering(n: int, edges: list[tuple[int, int]]) -> list[float]:
    """Local clustering per node of the undirected projection, from neighbour sets.

    Self-loops are ignored; nodes with fewer than two neighbours score 0.
    """
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for s, d in edges:
        if s != d:
            neighbours[s].add(d)
            neighbours[d].add(s)
    local = []
    for nb in neighbours:
        ordered = sorted(nb)
        pairs = [(u, w) for i, u in enumerate(ordered) for w in ordered[i + 1 :]]
        linked = sum(1 for u, w in pairs if w in neighbours[u])
        local.append(linked / len(pairs) if pairs else 0.0)
    return local


def spgemm_clustering(g) -> float:
    """Mean local clustering of a ``SnapshotGraph``'s undirected projection,
    from triangle counts of scipy sparse products.

    ``u`` orients each edge from its lower to its higher (degree, id) rank.
    Each triangle is one nonzero of ``(u @ u) * u``, at its (lowest,
    highest) pair, and one of ``(u.T @ u) * u``, at its (middle, highest)
    pair; their row and column sums credit its three nodes.  The mean is
    taken in node order, as the package takes it, so equal per-node counts
    give the same float bit for bit.
    """
    indptr, indices = g.undirected_csr()
    deg = np.diff(indptr)
    order = np.argsort(deg, kind="stable")
    rank = np.empty(g.n, np.int64)
    rank[order] = np.arange(g.n)
    lo, hi = np.repeat(rank, deg), rank[indices]
    up = lo < hi
    u = sparse.csr_matrix((np.ones(int(up.sum()), np.int32), (lo[up], hi[up])), shape=(g.n, g.n))
    low = (u @ u).multiply(u)
    by_rank = np.asarray(low.sum(axis=1) + low.sum(axis=0).T).ravel()
    by_rank += np.asarray((u.T.tocsr() @ u).multiply(u).sum(axis=1)).ravel()
    tri = np.empty(g.n)
    tri[order] = by_rank
    pairs = deg * (deg - 1.0) / 2
    return float(np.divide(tri, pairs, out=np.zeros(g.n), where=deg >= 2).mean())


def cyclic_components(edges: list[tuple[str, str]]) -> list[frozenset[str]]:
    """Strong components that contain a cycle, by pairwise mutual reachability.

    A component is cyclic when it has two or more members or its single
    member links to itself.
    """
    out: dict[str, set[str]] = {}
    for a, b in edges:
        out.setdefault(a, set()).add(b)
        out.setdefault(b, set())
    reach = {}
    for u in out:
        seen = {u}
        queue = deque([u])
        while queue:
            for w in out[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach[u] = seen
    comps = {frozenset(v for v in reach[u] if u in reach[v]) for u in out}
    return [c for c in comps if len(c) >= 2 or next(iter(c)) in out[next(iter(c))]]


def naive_disruption(
    paper_ids: list[str], edges: list[tuple[str, str]], focal: str
) -> tuple[int, int, int, float]:
    """Per-focal enumeration over every other paper, straight from the edges."""
    cites: dict[str, set[str]] = {p: set() for p in paper_ids}
    for citing, cited in edges:
        cites[citing].add(cited)
    refs = cites[focal]
    n_i = n_j = n_k = 0
    for p in paper_ids:
        if p == focal:
            continue
        cites_focal = focal in cites[p]
        cites_ref = bool(cites[p] & refs)
        if cites_focal and not cites_ref:
            n_i += 1
        elif cites_focal and cites_ref:
            n_j += 1
        elif cites_ref:
            n_k += 1
    denom = n_i + n_j + n_k
    d = (n_i - n_j) / denom if denom else 0.0
    return n_i, n_j, n_k, d


def closure_member_counts(
    edges: list[tuple[str, str, str]], roots: list[str], depth: int
) -> tuple[int, int]:
    """(articles, categories) within ``depth`` levels, by edge relaxation.

    Category distances start at 0 on the roots and are relaxed one level
    per sweep, which handles cycles and multi-parent links without any
    traversal machinery.
    """
    children: dict[str, list[str]] = {}
    articles_of: dict[str, set[str]] = {}
    categories = set()
    for child, parent, kind in edges:
        categories.add(parent)
        if kind == "category":
            categories.add(child)
            children.setdefault(parent, []).append(child)
        else:
            articles_of.setdefault(parent, set()).add(child)
    reached = set(roots)
    for _ in range(depth):
        new = set()
        for cat in reached:
            new.update(children.get(cat, ()))
        if new <= reached:
            break
        reached |= new
    articles: set[str] = set()
    for cat in reached:
        articles |= articles_of.get(cat, set())
    return len(articles), len(reached)


def category_fault(triples: list[tuple[str, str, str]]) -> tuple[int, str] | None:
    """``(row, message)`` of the first faulty triple of a category file, or None.

    The distinct triples are read in order.  A child is used as its declared
    kind and a parent as a category, and each name keeps the use it first
    had.  The first triple whose kind is neither ``article`` nor ``category``,
    or whose child or (then) parent is used otherwise, is at fault; its row
    is that of the triple's first copy.
    """
    use: dict[str, str] = {}
    for triple in dict.fromkeys(triples):
        child, parent, kind = triple
        if kind not in ("article", "category"):
            return triples.index(triple), f"unknown node kind {kind!r} (expected article/category)"
        for name, used in ((child, kind), (parent, "category")):
            have = use.setdefault(name, used)
            if have != used:
                return triples.index(triple), f"node {name!r} used both as {have} and as {used}"
    return None


def joint_least_squares_sse(
    spec, t: np.ndarray, y: np.ndarray, params: tuple[float, ...],
    nl_bounds: tuple[float, float], max_nfev: int = 200,
) -> tuple[float, float]:
    """SSE at ``params`` and after a bounded trust-region refinement from them.

    Every parameter moves at once through ``spec.value`` (the family
    formula), with only the nonlinear one held inside ``nl_bounds``; the
    SSE is taken on ``ln y`` for log-space families, as the fitter does.
    """
    nl_i = spec.nonlinear_index
    lower = np.full(spec.arity, -np.inf)
    upper = np.full(spec.arity, np.inf)
    lower[nl_i], upper[nl_i] = nl_bounds
    target = np.log(y) if spec.log_space else y

    def residual(x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            pred = spec.value(tuple(x), t)
            if spec.log_space:
                pred = np.log(pred)
        return np.where(np.isfinite(pred), pred, 1e300) - target

    x0 = np.clip(np.asarray(params, dtype=float), lower, upper)
    r0 = residual(x0)
    res = least_squares(residual, x0, bounds=(lower, upper), method="trf", max_nfev=max_nfev)
    return float(r0 @ r0), float(2.0 * res.cost)


def sample_discrete_powerlaw(
    exponent: float, kmin: int, size: int, seed: int, kmax: int = 200_000
) -> np.ndarray:
    """Inverse-CDF sampling of p(k) proportional to k^-exponent, k >= kmin."""
    ks = np.arange(kmin, kmax + 1, dtype=float)
    weights = ks**-exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u = rng.random(size)
    return (np.searchsorted(cdf, u, side="left") + kmin).astype(np.int64)


def topological_order_exists(names: list[str], edges: list[tuple[str, str]]) -> bool:
    """Kahn's algorithm success test on the given directed edges."""
    indeg = {n: 0 for n in names}
    out: dict[str, list[str]] = {n: [] for n in names}
    for a, b in edges:
        out[a].append(b)
        indeg[b] += 1
    queue = deque(n for n in names if indeg[n] == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == len(names)


def grid_stage_sse(spec, t: np.ndarray, y: np.ndarray) -> float:
    """SSE that ``fit_points(t, y, ..., _grid_size=SCAN_GRID_SIZE)`` reaches at
    its best grid point, before Brent: one ``lstsq`` per grid value.

    For families fitted on y, not on ``ln y``.
    """
    from knowgrow.fitting import SCAN_GRID_SIZE, _nl_bounds, _nl_grid

    grid = [None]
    if spec.nonlinear_index is not None:
        grid = _nl_grid(spec, *_nl_bounds(spec, t), SCAN_GRID_SIZE)
    sses = []
    for v in grid:
        basis = spec.basis(t, v)
        resid = basis @ np.linalg.lstsq(basis, y, rcond=None)[0] - y
        sses.append(float(resid @ resid))
    return min(sses)


def exhaustive_segment_break(series, early_family: str, late_family: str):
    """``segment_break`` by refitting both segments at every admissible split.

    Each split gets the same per-segment profile fit (``SCAN_GRID_SIZE``
    grid plus bounded Brent) that ``segment_break`` runs on its screened
    candidates; the earliest split with the lowest combined SSE wins and is
    refitted at full precision.
    """
    from knowgrow.fitting import (
        MIN_SEGMENT, SCAN_GRID_SIZE, FitError, SegmentSplit, fit_points,
    )
    from knowgrow.growth import family_spec

    n = len(series)
    if n < 12:
        raise FitError("segment detection needs at least 12 points")
    min_early = max(MIN_SEGMENT, family_spec(early_family).arity + 2)
    min_late = max(MIN_SEGMENT, family_spec(late_family).arity + 2)
    if min_early + min_late > n:
        raise FitError("series too short for the requested segment sizes")

    t, y = series.t, series.y
    best = None
    for b in range(min_early, n - min_late + 1):
        sse = (
            fit_points(t[:b], y[:b], early_family, _grid_size=SCAN_GRID_SIZE).sse
            + fit_points(t[b:], y[b:], late_family, _grid_size=SCAN_GRID_SIZE).sse
        )
        if best is None or sse < best[0]:
            best = (sse, b)
    _, b = best
    early = fit_points(t[:b], y[:b], early_family, t_origin=series.origin)
    late = fit_points(t[b:], y[b:], late_family, t_origin=series.origin)
    split_sse = early.sse + late.sse
    single_sse = min(
        fit_points(t, y, early_family, _grid_size=SCAN_GRID_SIZE).sse,
        fit_points(t, y, late_family, _grid_size=SCAN_GRID_SIZE).sse,
    )
    if single_sse <= 1e-16 * float(y @ y):
        contrast, low = 0.0, True
    else:
        contrast = 1.0 - split_sse / single_sse
        low = contrast < 0.5
    return SegmentSplit(
        break_index=b, break_month=series.month_at(b), early_fit=early,
        late_fit=late, contrast=contrast, low_contrast=low,
    )


def tsv_records(path, n_fields: tuple[int, ...]) -> list[tuple[int, list[str]]]:
    """``(line number, stripped fields)`` of every non-blank tab-separated line.

    The file is read as UTF-8 text with universal newlines; a line of the
    wrong field count or with an empty field raises ``DataFormatError``.
    """
    from knowgrow.dataio import DataFormatError

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    records = []
    for no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        parts = [p.strip() for p in raw.split("\t")]
        if len(parts) not in n_fields:
            want = " or ".join(map(str, n_fields))
            raise DataFormatError(
                path, no, f"expected {want} tab-separated fields, got {len(parts)}"
            )
        if not all(parts):
            raise DataFormatError(path, no, f"empty field {parts.index('') + 1}")
        records.append((no, parts))
    return records


def edge_list_rows(pairs: list[tuple[str, str]], undirected: bool) -> bytes:
    """The canonical form of an edge list: its distinct ``src<TAB>dst`` rows
    without self-loops (each with its reverse when ``undirected``), encoded,
    in the order of Python's `sorted`, each followed by a newline."""
    arcs = set(pairs) | ({(b, a) for a, b in pairs} if undirected else set())
    rows = sorted(f"{a}\t{b}".encode() for a, b in arcs if a != b)
    return b"".join(row + b"\n" for row in rows)
