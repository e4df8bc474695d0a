"""Category hierarchies with multiple parents and tolerated cycles.

Wiki-style category systems are lattices in intent but not in practice:
editors create multi-parent links freely and occasionally close loops
(two categories that are each other's parent).  This module keeps the
defective structure as-is -- cycles are detected and reported, never
repaired.  The hierarchy is one 0/1 child -> parent CSR over articles and
categories; strong components and member levels come from scipy's csgraph,
so every search terminates on any input.

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
    index: dict[str, int]
    is_category: np.ndarray
    up: sparse.csr_matrix

    @classmethod
    def from_edges(cls, edges: list[tuple[str, str, str]]) -> "CategoryGraph":
        """Build from ``(child, parent, kind-of-child)`` triples.

        Node ids follow first appearance in ``child, parent, child, ...``
        order.  Parents are categories by construction; declaring a node as
        an article and also using it as a parent is rejected, which enforces
        the "articles have no children" invariant.  A repeated triple makes
        one link.  Of several faults, the first in edge order is raised as a
        :class:`CategoryError`.
        """
        from scipy import sparse

        index: dict[str, int] = {}
        is_category: list[bool] = []  # fixed where each node first appears
        links: list[int] = []  # child0, parent0, child1, ... ids
        for triple in dict.fromkeys(edges):
            child, parent, kind = triple
            if kind not in _KINDS:
                raise CategoryError(f"unknown node kind {kind!r} (expected article/category)",
                                    edges.index(triple))
            # a child is used as its declared kind, a parent as a category
            for name, used in ((child, kind == CATEGORY), (parent, True)):
                i = index.setdefault(name, len(index))
                if i == len(is_category):
                    is_category.append(used)
                elif is_category[i] != used:
                    have, want = (CATEGORY if c else ARTICLE for c in (is_category[i], used))
                    raise CategoryError(f"node {name!r} used both as {have} and as {want}",
                                        edges.index(triple))
                links.append(i)
        ids = np.asarray(links, np.int64)
        n, child, parent = len(index), ids[0::2], ids[1::2]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(child, minlength=n))])
        parents = parent[np.argsort(child, kind="stable")]
        up = sparse.csr_matrix((np.ones(len(parents), np.int8), parents, indptr), shape=(n, n))
        return cls(list(index), index, np.asarray(is_category, bool), up)

    def __len__(self) -> int:
        return len(self.names)

    def require_category(self, name: str) -> int:
        i = self.index.get(name)
        if i is None:
            raise KeyError(f"unknown category: {name!r}")
        if not self.is_category[i]:
            raise ValueError(f"{name!r} is an article, not a category")
        return i


def _cycle_through(start: int, members: set[int], up: sparse.csr_matrix) -> list[int]:
    """One directed cycle through ``start`` inside a strongly connected set."""
    prev: dict[int, int | None] = {start: None}
    order = [start]
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        parents = up.indices[up.indptr[u]:up.indptr[u + 1]].tolist()
        if u != start and start in parents:
            path = []
            node: int | None = u
            while node is not None:
                path.append(node)
                node = prev[node]
            return list(reversed(path))
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
    cycles = []
    for comp in components.values():
        ids = _cycle_through(comp[0], set(comp), g.up) if len(comp) > 1 else comp
        cycles.append([g.names[i] for i in ids])
    cycles.sort(key=lambda c: c[0])
    return cycles


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
