"""Category hierarchies with multiple parents and tolerated cycles.

Wiki-style category systems are lattices in intent but not in practice:
editors create multi-parent links freely and occasionally close loops
(two categories that are each other's parent).  This module keeps the
defective structure as-is -- cycles are detected and reported, never
repaired -- and all traversals use visited sets so they terminate on any
input.

Depth semantics: the roots sit at level 0, so ``depth=3`` means "three
levels below the top categories".
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "CategoryGraph",
    "detect_cycles",
    "descendants",
    "count_members",
    "count_members_by_level",
    "wag_root_presets",
]

ARTICLE = "article"
CATEGORY = "category"
_KINDS = (ARTICLE, CATEGORY)


@dataclass
class CategoryGraph:
    """Typed hierarchy of articles and categories (child -> parent edges)."""

    names: list[str] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)
    is_category: list[bool] = field(default_factory=list)
    parent_categories: list[list[int]] = field(default_factory=list)
    child_categories: list[list[int]] = field(default_factory=list)
    child_articles: list[list[int]] = field(default_factory=list)

    def _intern(self, name: str, category: bool) -> int:
        i = self.index.get(name)
        if i is None:
            i = len(self.names)
            self.index[name] = i
            self.names.append(name)
            self.is_category.append(category)
            self.parent_categories.append([])
            self.child_categories.append([])
            self.child_articles.append([])
            return i
        if self.is_category[i] != category:
            have = CATEGORY if self.is_category[i] else ARTICLE
            want = CATEGORY if category else ARTICLE
            raise ValueError(f"node {name!r} used both as {have} and as {want}")
        return i

    @classmethod
    def from_edges(cls, edges: list[tuple[str, str, str]]) -> "CategoryGraph":
        """Build from ``(child, parent, kind-of-child)`` triples.

        Parents are categories by construction; declaring a node as an
        article and also using it as a parent is rejected, which enforces
        the "articles have no children" invariant.  A repeated triple makes
        one link; adjacency lists keep first-appearance order.
        """
        g = cls()
        for child, parent, kind in dict.fromkeys(edges):
            if kind not in _KINDS:
                raise ValueError(f"unknown node kind {kind!r} (expected article/category)")
            c = g._intern(child, kind == CATEGORY)
            p = g._intern(parent, True)
            if kind == CATEGORY:
                g.parent_categories[c].append(p)
                g.child_categories[p].append(c)
            else:
                g.child_articles[p].append(c)
        return g

    def __len__(self) -> int:
        return len(self.names)

    def require_category(self, name: str) -> int:
        i = self.index.get(name)
        if i is None:
            raise KeyError(f"unknown category: {name!r}")
        if not self.is_category[i]:
            raise ValueError(f"{name!r} is an article, not a category")
        return i


def _cycle_through(start: int, members: set[int], adj: list[list[int]]) -> list[int]:
    """One directed cycle through ``start`` inside a strongly connected set."""
    prev: dict[int, int | None] = {start: None}
    order = [start]
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        if u != start and start in adj[u]:
            path = []
            node: int | None = u
            while node is not None:
                path.append(node)
                node = prev[node]
            return list(reversed(path))
        for w in adj[u]:
            if w in members and w not in prev:
                prev[w] = u
                order.append(w)
    raise AssertionError("strongly connected component without a closing edge")


def detect_cycles(g: CategoryGraph) -> list[list[str]]:
    """One representative cycle per cyclic SCC of the category subgraph.

    Strong components come from scipy's csgraph on the 0/1 child -> parent
    adjacency; each cycle starts at its component's smallest id.
    Self-parent categories are reported as single-element cycles.  The
    result is empty exactly when the category subgraph is a DAG.
    """
    n = len(g)
    rows = [c for c, parents in enumerate(g.parent_categories) for _ in parents]
    cols = [p for parents in g.parent_categories for p in parents]
    links = sparse.csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    _, labels = csgraph.connected_components(links, connection="strong")
    on_cycle = (np.bincount(labels)[labels] > 1) | (links.diagonal() > 0)
    components: dict[int, list[int]] = {}
    for v in np.flatnonzero(on_cycle).tolist():
        components.setdefault(int(labels[v]), []).append(v)
    cycles = []
    for comp in components.values():
        ids = _cycle_through(comp[0], set(comp), g.parent_categories) if len(comp) > 1 else comp
        cycles.append([g.names[i] for i in ids])
    cycles.sort(key=lambda c: c[0])
    return cycles


def _levels(g: CategoryGraph, roots: set[str] | list[str], depth: int) -> list[list[int]]:
    """Category ids first reached at each level, roots at level 0.

    The walk stops once a level adds nothing, so the list can be shorter
    than ``depth + 1``.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    frontier = sorted({g.require_category(r) for r in roots})
    seen = set(frontier)
    levels = [frontier]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for w in g.child_categories[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        levels.append(nxt)
        frontier = nxt
    return levels


def descendants(g: CategoryGraph, roots: set[str] | list[str], depth: int) -> set[str]:
    """Categories reachable downward within ``depth`` levels of the roots.

    Roots are included at level 0; every category is counted once at its
    minimum level, so cyclic links cannot loop the traversal.
    """
    return {g.names[i] for level in _levels(g, roots, depth) for i in level}


def _member_rows(
    g: CategoryGraph, roots: set[str] | list[str], depth: int
) -> list[tuple[int, int]]:
    """Cumulative ``(categories, articles)`` per level the walk reaches."""
    rows = []
    articles: set[int] = set()
    categories = 0
    for level in _levels(g, roots, depth):
        categories += len(level)
        for c in level:
            articles.update(g.child_articles[c])
        rows.append((categories, len(articles)))
    return rows


def count_members_by_level(
    g: CategoryGraph, roots: set[str] | list[str], depth: int
) -> list[tuple[int, int]]:
    """Cumulative ``(categories, articles)`` within each depth 0..``depth``.

    Row ``k`` holds what :func:`count_members` counts at depth ``k``; all
    rows come from one level walk.
    """
    rows = _member_rows(g, roots, depth)
    return rows + rows[-1:] * (depth + 1 - len(rows))


def count_members(g: CategoryGraph, roots: set[str] | list[str], depth: int) -> dict:
    """Distinct articles attached to any category within ``depth`` of roots.

    Articles attached directly to the roots count too (level-0 categories
    are members), and an article under several matched categories counts
    once.  Returns ``{"articles": ..., "categories": ...}``.
    """
    categories, articles = _member_rows(g, roots, depth)[-1]
    return {"articles": articles, "categories": categories}


def wag_root_presets() -> dict[str, list[str]]:
    """Named academic-category root lists shipped with the package.

    ``wag_core`` is the tight eight-category selection used for the
    academic-group counts; ``wag_broad`` the wider survey list.
    """
    data = resources.files(__package__).joinpath("wag_roots.json").read_text()
    return json.loads(data)
