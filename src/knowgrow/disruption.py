"""Disruption index over citation graphs and ranked-set intersections.

The disruption index of a focal paper classifies the papers engaging with
its citation neighbourhood (Funk & Owen-Smith 2017): among later works,

- ``n_i`` cite the focal paper but none of its references,
- ``n_j`` cite the focal paper and at least one reference,
- ``n_k`` cite at least one reference but not the focal paper,

and ``d = (n_i - n_j) / (n_i + n_j + n_k)`` in [-1, 1].  A paper nobody
engages with (zero denominator) is reported with ``d = 0`` and
``defined=False`` rather than dropped, which keeps rankings stable.

The counts come from the bibliographic coupling ``A @ A.T`` (Kessler 1963)
of the citing -> cited matrix ``A``.  Scoring every paper costs the sum
over references of their citation count squared; row blocks of
``BLOCK_WORK`` coupling pairs bound memory.  Duplicate citations count once.

No publication-year cutoff is applied when collecting the engaging papers;
callers who want one can filter the ranking by year range.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy import sparse

from .graph_metrics import row_blocks

__all__ = [
    "CitationGraph",
    "DScore",
    "d_index",
    "d_index_all",
    "rank",
    "intersect_analysis",
    "inclusion_lag",
]

YEAR_RANGE = (1900, 2100)

BLOCK_WORK = 1 << 20


@dataclass
class CitationGraph:
    """Papers with publication years; ``cites`` is the 0/1 citing -> cited CSR."""

    ids: list[str]
    years: np.ndarray
    fields: list[str | None]
    index: dict[str, int]
    cites: sparse.csr_matrix
    cited_by: sparse.csr_matrix
    duplicate_count: int
    _scores: list[DScore] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        papers: list[tuple],
        edges: list[tuple[str, str]],
    ) -> "CitationGraph":
        """Build from ``(id, year[, field])`` rows and ``(citing, cited)`` pairs."""
        ids: list[str] = []
        years: list[int] = []
        fields: list[str | None] = []
        index: dict[str, int] = {}
        for row in papers:
            pid, year = row[0], int(row[1])
            fld = row[2] if len(row) > 2 else None
            if pid in index:
                raise ValueError(f"duplicate paper id {pid!r}")
            if not YEAR_RANGE[0] <= year <= YEAR_RANGE[1]:
                raise ValueError(f"year {year} of {pid!r} outside {YEAR_RANGE}")
            index[pid] = len(ids)
            ids.append(pid)
            years.append(year)
            fields.append(fld)

        n = len(ids)
        try:
            ends = np.fromiter(map(index.__getitem__, chain.from_iterable(edges)), np.int64,
                               2 * len(edges))
        except KeyError as exc:
            raise ValueError(f"edge references unknown paper id {exc.args[0]!r}") from None
        srcs, dsts = ends[0::2], ends[1::2]
        loops = np.flatnonzero(srcs == dsts)
        if len(loops):
            raise ValueError(f"self-citation on {ids[srcs[loops[0]]]!r}")

        # boolean values: repeated citations merge, coupling products cannot wrap
        cites = sparse.csr_matrix((np.ones(len(edges), bool), (srcs, dsts)), shape=(n, n))
        return cls(ids, np.asarray(years), fields, index, cites, cites.T.tocsr(),
                   len(edges) - cites.nnz)

    def __len__(self) -> int:
        return len(self.ids)

    def citation_counts(self) -> np.ndarray:
        return np.diff(self.cited_by.indptr)


@dataclass(frozen=True)
class DScore:
    paper: str
    n_i: int
    n_j: int
    n_k: int
    d: float
    defined: bool

    def to_json(self) -> dict:
        return {
            "paper": self.paper,
            "n_i": self.n_i,
            "n_j": self.n_j,
            "n_k": self.n_k,
            "d": self.d,
            "defined": self.defined,
        }


def _counts(g: CitationGraph, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n_i, n_j, n_k)`` of the focal papers ``lo..hi-1``."""
    coupled = g.cites[lo:hi] @ g.cited_by  # row f: f and every paper sharing a reference
    focal = np.repeat(np.arange(lo, hi), np.diff(coupled.indptr))
    coupled.data = coupled.indices != focal
    coupled.eliminate_zeros()
    n_j = np.asarray(coupled.multiply(g.cited_by[lo:hi]).sum(axis=1)).ravel()
    n_i = np.diff(g.cited_by.indptr[lo : hi + 1]) - n_j
    n_k = np.diff(coupled.indptr) - n_j
    return n_i, n_j, n_k


def _dscore(g: CitationGraph, focal: int, n_i: int, n_j: int, n_k: int) -> DScore:
    denom = n_i + n_j + n_k
    if denom == 0:
        return DScore(g.ids[focal], 0, 0, 0, 0.0, False)
    return DScore(g.ids[focal], n_i, n_j, n_k, (n_i - n_j) / denom, True)


def _all_scores(g: CitationGraph) -> list[DScore]:
    """Scores of every paper in index order, computed once and kept on ``g``."""
    if g._scores is None:
        work = g.cites @ g.citation_counts()
        blocks = [_counts(g, lo, hi) for lo, hi in row_blocks(work, BLOCK_WORK)]
        counts = zip(*(np.concatenate(c).tolist() for c in zip(*blocks)))
        g._scores = [_dscore(g, i, *c) for i, c in enumerate(counts)]
    return g._scores


def d_index(g: CitationGraph, focal: str) -> DScore:
    """Disruption score of one focal paper."""
    if focal not in g.index:
        raise KeyError(f"unknown paper id {focal!r}")
    i = g.index[focal]
    return _dscore(g, i, *(int(c[0]) for c in _counts(g, i, i + 1)))


def d_index_all(g: CitationGraph) -> dict[str, DScore]:
    """Disruption scores for every paper, keyed and ordered by sorted id.

    The work is the sum over references of their citation count squared,
    in blocks that bound memory by ``BLOCK_WORK``.  The scores are kept on
    ``g``, so a later ``rank(g, "disruption")`` does not score again.
    """
    return {s.paper: s for s in sorted(_all_scores(g), key=lambda s: s.paper)}


def rank(
    g: CitationGraph,
    key: str = "citations",
    k: int | None = None,
    year_range: tuple[int, int] | None = None,
) -> list[str]:
    """Paper ids in descending order of citations or disruption.

    Ties break by ascending id; ``year_range`` (inclusive) filters by
    publication year before ranking.  ``k`` truncates the result and may
    exceed the population.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    if key == "citations":
        values = {g.ids[i]: int(c) for i, c in enumerate(g.citation_counts())}
    elif key == "disruption":
        values = {s.paper: s.d for s in _all_scores(g)}
    else:
        raise ValueError(f"unknown ranking key {key!r} (expected citations|disruption)")
    candidates = range(len(g))
    if year_range is not None:
        lo, hi = year_range
        candidates = [i for i in candidates if lo <= int(g.years[i]) <= hi]
    ordered = sorted((g.ids[i] for i in candidates), key=lambda p: (-values[p], p))
    return ordered[:k] if k is not None else ordered


def intersect_analysis(
    a: set[str],
    b: set[str],
    ctop: list[str],
    percentiles: list[float],
) -> list[dict]:
    """Overlap of two id sets with prefixes of a ranked id list.

    For each percentile p the top ``floor(p% of len(ctop))`` ids form the
    prefix; each intersection size is reported as a fraction of the owning
    set's size and as a fraction of the prefix size.
    """
    if not ctop:
        raise ValueError("ctop ranking is empty")
    for p in percentiles:
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile {p} outside (0, 100]")
    rows = []
    for p in percentiles:
        size = int(len(ctop) * p / 100.0)
        prefix = set(ctop[:size])
        ia = len(a & prefix)
        ib = len(b & prefix)
        rows.append(
            {
                "percentile": p,
                "prefix_size": size,
                "a_count": ia,
                "b_count": ib,
                "a_frac_of_set": ia / len(a) if a else 0.0,
                "b_frac_of_set": ib / len(b) if b else 0.0,
                "a_frac_of_prefix": ia / size if size else 0.0,
                "b_frac_of_prefix": ib / size if size else 0.0,
            }
        )
    return rows


def inclusion_lag(
    pub_years: np.ndarray,
    incl_years: np.ndarray,
    fields: list[str] | None = None,
) -> dict:
    """Lag between publication and inclusion years, optionally per field.

    Negative lags (inclusion before publication) are tolerated but counted
    in ``negative_count`` so dirty records are visible.
    """
    pub = np.asarray(pub_years, dtype=np.int64)
    incl = np.asarray(incl_years, dtype=np.int64)
    if pub.shape != incl.shape:
        raise ValueError(f"length mismatch: {pub.shape} vs {incl.shape}")
    if fields is not None and len(fields) != len(pub):
        raise ValueError("fields vector must align with the year vectors")
    lags = incl - pub
    report = {
        "mean_lag": float(lags.mean()) if lags.size else 0.0,
        "lags": lags.tolist(),
        "negative_count": int(np.count_nonzero(lags < 0)),
        "per_field": {},
    }
    if fields is not None:
        per: dict[str, list[int]] = {}
        for f, lag in zip(fields, lags):
            per.setdefault(f, []).append(int(lag))
        report["per_field"] = {f: float(np.mean(v)) for f, v in sorted(per.items())}
    return report
