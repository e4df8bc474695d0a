"""Disruption index over citation graphs and ranked-set intersections.

The disruption index of a focal paper classifies the papers engaging with
its citation neighbourhood (Funk & Owen-Smith 2017):

- ``n_i`` cite the focal paper but none of its references,
- ``n_j`` cite the focal paper and at least one reference,
- ``n_k`` cite at least one reference but not the focal paper,

and ``d = (n_i - n_j) / (n_i + n_j + n_k)`` in [-1, 1].  A paper nobody
engages with (zero denominator) is reported with ``d = 0`` and
``defined=False`` rather than dropped, which keeps rankings stable.

The counts take in every paper of the graph, whatever its publication
year.  Funk & Owen-Smith count only works published after the focal paper;
no such cutoff is applied here (a year window is an open item in
ROADMAP.md).  A year range given to :func:`rank` filters the ranked
papers, not the papers counted.

The counts come from the bibliographic coupling ``A @ A.T`` (Kessler 1963)
of the citing -> cited matrix ``A``.  Scoring every paper costs the sum
over references of their citation count squared; :func:`row_blocks` of
``BLOCK_WORK`` coupling pairs bound memory.  Duplicate citations count once.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "CitationGraph",
    "PaperError",
    "CitationError",
    "d_index_all",
    "rank",
    "intersect_analysis",
]

YEAR_RANGE = (1900, 2100)
NOT_A_YEAR = -1 << 63

BLOCK_WORK = 1 << 20


def row_blocks(work: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` row ranges, cut where cumulative ``work`` crosses ``budget``."""
    total = np.concatenate(([0], np.cumsum(work)))
    cuts = np.flatnonzero(np.diff(total[:-1] // budget)) + 1
    bounds = [0, *cuts.tolist(), len(work)]
    return list(zip(bounds, bounds[1:]))


class PaperError(ValueError):
    """A bad paper row: ``row`` indexes it, ``first`` the earlier row of a duplicate id."""

    def __init__(self, message: str, row: int, first: int | None = None):
        super().__init__(message)
        self.row = row
        self.first = first


class CitationError(ValueError):
    """A bad citation pair, ``row`` in the edge list; unknown ids are found before loops."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass
class CitationGraph:
    """Papers with publication years; ``cites`` is the 0/1 citing -> cited CSR."""

    ids: list[str]
    years: np.ndarray
    cites: sparse.csr_matrix
    cited_by: sparse.csr_matrix
    duplicate_count: int

    @classmethod
    def build(cls, papers, edges) -> "CitationGraph":
        """Build from ``(id, year[, field])`` rows and ``(citing, cited)`` pairs.

        A year is an integer or ASCII digits.  The first faulty paper row,
        then the first faulty pair, raises.
        """
        table = [row[:2] for row in papers]
        ids = [row[0] for row in table]
        first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))  # each id's first row
        ends = [end for pair in edges for end in pair]
        return cls.from_arrays(ids, [row[1] for row in table],
                               np.fromiter(map(first.__getitem__, ids), np.int64, len(ids)),
                               np.fromiter(map(first.get, ends, repeat(-1)), np.int64, len(ends)),
                               ends.__getitem__)

    @classmethod
    def from_arrays(cls, ids: list[str], years: list, firsts: np.ndarray, ends: np.ndarray,
                    end_name: Callable[[int], str]) -> "CitationGraph":
        """Build from paper ids and years, the first row of each row's id, and citations.

        ``ends`` holds the paper row of each citing and cited end in turn, -1
        for an id no paper has, which ``end_name`` spells.
        """
        from scipy import sparse

        n = len(ids)
        parsed = {y: _year(y) for y in set(years)}
        year = np.fromiter(map(parsed.__getitem__, years), np.int64, n)
        bad = (firsts != np.arange(n)) | (year < YEAR_RANGE[0]) | (year > YEAR_RANGE[1])
        if bad.any():
            row = int(np.argmax(bad))
            if year[row] == NOT_A_YEAR:
                raise PaperError(f"not a year: {years[row]!r}", row)
            if firsts[row] != row:
                raise PaperError(f"duplicate paper id {ids[row]!r}", row, int(firsts[row]))
            raise PaperError(f"year {int(years[row])} of {ids[row]!r} outside {YEAR_RANGE}", row)
        if (ends < 0).any():
            end = int(np.argmax(ends < 0))
            raise CitationError(f"edge references unknown paper id {end_name(end)!r}", end // 2)
        srcs, dsts = ends.reshape(-1, 2).T
        loops = np.flatnonzero(srcs == dsts)
        if len(loops):
            row = int(loops[0])
            raise CitationError(f"self-citation on {ids[srcs[row]]!r}", row)

        # boolean values: repeated citations merge, coupling products cannot wrap
        cites = sparse.csr_matrix((np.ones(len(srcs), bool), (srcs, dsts)), shape=(n, n))
        return cls(ids, year, cites, cites.T.tocsr(), len(srcs) - cites.nnz)

    def __len__(self) -> int:
        return len(self.ids)

    def citation_counts(self) -> np.ndarray:
        return np.diff(self.cited_by.indptr)


def _year(spelled) -> int:
    """An integer year, or ASCII digits as one; `NOT_A_YEAR` for anything else."""
    if not isinstance(spelled, str):
        return int(spelled)
    digits = spelled.isascii() and spelled.isdigit()
    return min(int(spelled), 1 << 62) if digits else NOT_A_YEAR


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


def _d(counts: np.ndarray) -> np.ndarray:
    """``(n_i - n_j) / (n_i + n_j + n_k)`` of each ``counts`` row, 0 where the sum is 0."""
    total = counts.sum(axis=1)
    return np.divide(counts[:, 0] - counts[:, 1], total, out=np.zeros(len(counts)), where=total > 0)


def d_index_all(g: CitationGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, d)`` of every paper in index order: row ``i`` is ``g.ids[i]``.

    ``counts`` holds the int64 rows ``(n_i, n_j, n_k)``, scored in blocks of
    ``BLOCK_WORK`` coupling pairs; ``d`` is defined where a row sums to more
    than 0.
    """
    work = g.cites @ g.citation_counts()
    counts = np.concatenate([np.column_stack(_counts(g, lo, hi))
                             for lo, hi in row_blocks(work, BLOCK_WORK)])
    return counts, _d(counts)


def rank(
    g: CitationGraph,
    values: np.ndarray,
    k: int | None = None,
    year_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Rows of ``g`` in descending order of ``values``, one value per paper.

    Ties break by ascending id; ``year_range`` (inclusive) filters by
    publication year before ranking.  ``k`` truncates the result and may
    exceed the population.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    candidates = np.arange(len(g))
    if year_range is not None:
        lo, hi = year_range
        candidates = np.flatnonzero((lo <= g.years) & (g.years <= hi))
    # by id, then a stable sort by descending value keeps ties in id order
    by_id = np.array(sorted(candidates.tolist(), key=g.ids.__getitem__), dtype=np.int64)
    return by_id[np.argsort(-values[by_id], kind="stable")][:k]


def intersect_analysis(
    a: set[str],
    b: set[str],
    ctop: list[str],
    percentiles: list[float],
) -> list[dict]:
    """Overlap of two id sets with prefixes of a ranked id list.

    For each percentile p the top ``floor(p% of len(ctop))`` ids form the
    prefix, p read as the decimal it prints as, so 18.4% of 375 ids is 69;
    each intersection size is reported as a fraction of the owning set's
    size and as a fraction of the prefix size.
    """
    from fractions import Fraction

    if not ctop:
        raise ValueError("ctop ranking is empty")
    for p in percentiles:
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile {p} outside (0, 100]")
    rows = []
    for p in percentiles:
        size = len(ctop) * Fraction(str(p)) // 100
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

