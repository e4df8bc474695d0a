"""Category hierarchies with multiple parents and tolerated cycles.

Wiki-style category systems are lattices in intent but not in practice:
editors create multi-parent links freely and occasionally close loops
(two categories that are each other's parent).  This module keeps the
defective structure as-is -- cycles are detected and reported, never
repaired.  The hierarchy is one 0/1 child -> parent CSR over articles and
categories, built with numpy from the node ids `dataio._intern` gives the
loaded names; there is no name -> id dict.  Strong components and member
levels come from scipy's csgraph, so every search terminates on any input.

Depth semantics: the roots sit at level 0, so ``depth=3`` means "three
levels below the top categories".  An article attached to a category at
level k counts from depth k on.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "CategoryGraph",
    "CategoryError",
    "detect_cycles",
    "count_members",
    "count_members_by_level",
    "wag_root_presets",
]

ARTICLE = "article"
CATEGORY = "category"
_KINDS = (ARTICLE, CATEGORY)


class CategoryError(ValueError):
    """A bad hierarchy: ``row`` indexes the first input triple at fault."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass
class CategoryGraph:
    """Typed hierarchy of articles and categories.

    ``up`` is the 0/1 child -> parent adjacency over every node; each row
    lists the node's parents in first-appearance order.
    """

    names: list[str]
    is_category: np.ndarray
    up: sparse.csr_matrix

    @classmethod
    def from_edges(cls, links: np.ndarray, kind: np.ndarray, names: list[str],
                   kinds: list[str]) -> "CategoryGraph":
        """Build from each input row's ``(child, parent)`` ids and kind of child,
        an index into ``kinds``.  Ids index ``names`` and follow first appearance
        in ``child, parent, child, ...`` order, as `dataio._intern` gives them.

        A parent is a category and a child is of its declared kind; each node
        keeps the kind of its first appearance, so an article cannot be a
        parent.  The first row with an unknown kind or a node of two kinds
        raises a :class:`CategoryError`.  A repeated link is kept once.
        """
        from scipy import sparse

        n, known = len(names), np.array([k in _KINDS for k in kinds])
        # a child is used as its declared kind, a parent as a category
        declared = np.array([k == CATEGORY for k in kinds])[kind]
        used = np.column_stack([declared, np.ones(len(kind), bool)])
        top = np.maximum.accumulate(links.ravel())  # rises at each node's first place
        is_category = used.ravel()[np.flatnonzero(np.diff(top, prepend=-1))]
        clash = used != is_category[links]
        faults = np.flatnonzero(~known[kind] | clash.any(axis=1))
        if len(faults):
            row = int(faults[0])
            if not known[kind[row]]:
                raise CategoryError(
                    f"unknown node kind {kinds[kind[row]]!r} (expected article/category)", row)
            i = int(links[row, 0] if clash[row, 0] else links[row, 1])  # the child first
            have, want = (CATEGORY, ARTICLE) if is_category[i] else (ARTICLE, CATEGORY)
            raise CategoryError(f"node {names[i]!r} used both as {have} and as {want}", row)
        _, once = np.unique(links[:, 0].astype(np.int64) * n + links[:, 1], return_index=True)
        child, parent = links[np.sort(once)].T
        indptr = np.concatenate([[0], np.cumsum(np.bincount(child, minlength=n))])
        parents = parent[np.argsort(child, kind="stable")]
        up = sparse.csr_matrix((np.ones(len(parents), np.int8), parents, indptr), shape=(n, n))
        return cls(names, is_category, up)

    def __len__(self) -> int:
        return len(self.names)

    def require_category(self, name: str) -> int:
        try:
            i = self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown category: {name!r}") from None
        if not self.is_category[i]:
            raise ValueError(f"{name!r} is an article, not a category")
        return i


def _cycle_through(start: int, members: set[int], up: sparse.csr_matrix) -> list[int]:
    """One directed cycle through ``start`` inside a strongly connected set."""
    prev, order = {start: start}, [start]
    for u in order:  # the list grows as the search reaches new nodes
        parents = up.indices[up.indptr[u]:up.indptr[u + 1]].tolist()
        if u != start and start in parents:
            path = [u]
            while path[-1] != start:
                path.append(prev[path[-1]])
            return path[::-1]
        for w in parents:
            if w in members and w not in prev:
                prev[w] = u
                order.append(w)
    raise AssertionError("strongly connected component without a closing edge")


def detect_cycles(g: CategoryGraph) -> list[list[str]]:
    """One representative cycle per cyclic SCC of the category subgraph.

    Strong components come from scipy's csgraph on ``g.up``; articles have
    no children, so none is on a cycle.  Each cycle starts at its
    component's smallest id.  Self-parent categories are reported as
    single-element cycles.  The result is empty exactly when the category
    subgraph is a DAG.
    """
    from scipy.sparse import csgraph

    _, labels = csgraph.connected_components(g.up, connection="strong")
    on_cycle = (np.bincount(labels)[labels] > 1) | (g.up.diagonal() > 0)
    components: dict[int, list[int]] = {}
    for v in np.flatnonzero(on_cycle).tolist():
        components.setdefault(int(labels[v]), []).append(v)
    cycles = [_cycle_through(c[0], set(c), g.up) if len(c) > 1 else c
              for c in components.values()]
    return sorted(([g.names[i] for i in ids] for ids in cycles), key=lambda c: c[0])


def _levels(g: CategoryGraph, roots: set[str] | list[str], depth: int) -> np.ndarray:
    """The depth from which each node is a member, ``inf`` beyond ``depth``.

    A category's is its distance below the nearest root; an article's is
    its nearest category's.  One multi-source search down ``g.up`` gives
    both, since an article lies one link below its categories.
    """
    from scipy.sparse import csgraph

    if depth < 0:
        raise ValueError("depth must be >= 0")
    ids = sorted({g.require_category(r) for r in roots})
    dist = csgraph.dijkstra(g.up.T, indices=ids, min_only=True, limit=depth + 1)
    return dist - ~g.is_category


def count_members_by_level(
    g: CategoryGraph, roots: set[str] | list[str], depth: int
) -> list[tuple[int, int]]:
    """Cumulative ``(categories, articles)`` within each depth 0..``depth``.

    Row ``k`` holds what :func:`count_members` counts at depth ``k``; all
    rows come from one search.  No member lies deeper than ``len(g)``, so
    the rows stop there: each deeper row would repeat the last.
    """
    depth = min(depth, len(g))
    levels = _levels(g, roots, depth)
    inside = levels <= depth
    columns = [
        np.bincount(levels[inside & kind].astype(np.int64), minlength=depth + 1).cumsum().tolist()
        for kind in (g.is_category, ~g.is_category)
    ]
    return list(zip(*columns))


def count_members(g: CategoryGraph, roots: set[str] | list[str], depth: int) -> dict:
    """Distinct articles attached to any category within ``depth`` of roots.

    Articles attached directly to the roots count too (level-0 categories
    are members), and an article under several matched categories counts
    once.  Returns the last row of :func:`count_members_by_level` as a dict.
    """
    categories, articles = count_members_by_level(g, roots, depth)[-1]
    return {"articles": articles, "categories": categories}


def wag_root_presets() -> dict[str, list[str]]:
    """Named academic-category root lists shipped with the package.

    ``wag_core`` is the tight eight-category selection used for the
    academic-group counts; ``wag_broad`` the wider survey list.
    """
    data = resources.files(__package__).joinpath("wag_roots.json").read_text()
    return json.loads(data)
