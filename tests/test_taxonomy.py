"""Category hierarchy traversal, cycle detection, and membership counts."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowgrow.taxonomy import (
    CategoryGraph,
    count_members,
    count_members_by_level,
    descendants,
    detect_cycles,
    wag_root_presets,
)

from _oracles import closure_member_counts, cyclic_components, topological_order_exists


def cat_edges(*pairs):
    return [(c, p, "category") for c, p in pairs]


MUTUAL_PARENTS = CategoryGraph.from_edges(
    cat_edges(("Physics", "Mathematics"), ("Mathematics", "Physics"))
)


def random_hierarchy(seed: int, n_cats: int = 50, n_articles: int = 80, cyclic: bool = False):
    """Random multi-parent category graph edge list (names are strings)."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(1, n_cats):
        for p in rng.choice(i, size=min(i, int(rng.integers(1, 4))), replace=False):
            edges.append((f"c{i}", f"c{p}", "category"))
    if cyclic:
        for _ in range(max(1, n_cats // 10)):
            a, b = rng.integers(0, n_cats, size=2)
            if a != b:
                edges.append((f"c{a}", f"c{b}", "category"))
    for j in range(n_articles):
        for p in rng.choice(n_cats, size=int(rng.integers(1, 3)), replace=False):
            edges.append((f"a{j}", f"c{p}", "article"))
    return edges


class TestConstruction:
    def test_article_as_parent_rejected(self):
        with pytest.raises(ValueError, match="article"):
            CategoryGraph.from_edges(
                [("X", "Cat", "article"), ("Child", "X", "category")]
            )

    def test_kind_conflict_rejected(self):
        with pytest.raises(ValueError, match="both"):
            CategoryGraph.from_edges(
                [("X", "Cat", "article"), ("X", "Other", "category")]
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            CategoryGraph.from_edges([("A", "B", "page")])

    def test_repeated_triples_link_once_in_first_order(self):
        g = CategoryGraph.from_edges(
            [("C", "A", "category"), ("B", "A", "category"), ("a2", "A", "article"),
             ("C", "A", "category"), ("a1", "A", "article"), ("a2", "A", "article"),
             ("C", "B", "category"), ("B", "A", "category"),
             ("D", "B", "category"), ("D", "C", "category")]
        )
        assert g.names == ["C", "A", "B", "a2", "a1", "D"]
        assert g.is_category.tolist() == [True, True, True, False, False, True]
        # the csgraph searches must leave the rows' order as built
        detect_cycles(g)
        count_members(g, ["A"], 2)

        def parents(name):
            i = g.index[name]
            return [g.names[p] for p in g.up.indices[g.up.indptr[i]:g.up.indptr[i + 1]]]

        assert g.up.nnz == 7
        assert set(g.up.data.tolist()) == {1}
        assert parents("A") == []
        assert parents("C") == ["A", "B"]
        assert parents("D") == ["B", "C"]
        assert parents("a2") == ["A"]


class TestDetectCycles:
    def test_mutual_parents(self):
        assert detect_cycles(MUTUAL_PARENTS) == [["Physics", "Mathematics"]]

    def test_pure_tree(self):
        g = CategoryGraph.from_edges(
            cat_edges(("Algebra", "Mathematics"), ("Linear algebra", "Algebra"))
            + [("a1", "Linear algebra", "article")]
        )
        assert detect_cycles(g) == []

    def test_three_cycle(self):
        g = CategoryGraph.from_edges(cat_edges(("A", "B"), ("B", "C"), ("C", "A")))
        cycles = detect_cycles(g)
        assert len(cycles) == 1
        assert sorted(cycles[0]) == ["A", "B", "C"]

    def test_self_parent(self):
        g = CategoryGraph.from_edges(cat_edges(("Loop", "Loop"), ("X", "Loop")))
        assert detect_cycles(g) == [["Loop"]]

    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_empty_iff_topological_order_exists(self, seed, cyclic):
        edges = random_hierarchy(seed, cyclic=cyclic)
        g = CategoryGraph.from_edges(edges)
        cat_names = sorted({p for _, p, _ in edges} | {c for c, _, k in edges if k == "category"})
        cat_only = [(c, p) for c, p, k in edges if k == "category"]
        assert (detect_cycles(g) == []) == topological_order_exists(cat_names, cat_only)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_one_closed_chain_per_cyclic_component(self, seed):
        edges = random_hierarchy(seed, cyclic=True)
        rng = np.random.default_rng(seed)
        edges += cat_edges(*((f"c{i}", f"c{i}") for i in rng.integers(0, 50, size=3)))
        g = CategoryGraph.from_edges(edges)
        comps = cyclic_components([(c, p) for c, p, k in edges if k == "category"])
        cycles = detect_cycles(g)
        assert len(cycles) == len(comps)
        for cycle in cycles:
            ids = [g.index[name] for name in cycle]
            assert all(g.up[a, b] == 1 for a, b in zip(ids, ids[1:] + ids[:1]))
            comp = next(c for c in comps if cycle[0] in c)
            assert set(cycle) <= comp
            assert ids[0] == min(g.index[name] for name in comp)


class TestDescendants:
    def test_depth_zero_is_roots(self):
        g = CategoryGraph.from_edges(cat_edges(("B", "A"), ("C", "B")))
        assert descendants(g, ["A"], 0) == {"A"}

    def test_chain_depth_three(self):
        g = CategoryGraph.from_edges(
            cat_edges(
                ("Algebra", "Math"),
                ("LinearAlgebra", "Algebra"),
                ("Matrices", "LinearAlgebra"),
            )
        )
        assert descendants(g, ["Math"], 3) == {"Math", "Algebra", "LinearAlgebra", "Matrices"}
        assert descendants(g, ["Math"], 2) == {"Math", "Algebra", "LinearAlgebra"}

    def test_cycle_terminates(self):
        assert descendants(MUTUAL_PARENTS, ["Physics"], 3) == {"Physics", "Mathematics"}

    def test_unknown_root(self):
        with pytest.raises(KeyError):
            descendants(MUTUAL_PARENTS, ["Chemistry"], 1)

    def test_article_root_rejected(self):
        g = CategoryGraph.from_edges([("a1", "Cat", "article")])
        with pytest.raises(ValueError, match="article"):
            descendants(g, ["a1"], 1)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_depth(self, seed, depth):
        g = CategoryGraph.from_edges(random_hierarchy(seed, cyclic=True))
        shallow = descendants(g, ["c0"], depth)
        deep = descendants(g, ["c0"], depth + 1)
        assert shallow <= deep


class TestCountMembers:
    def test_single_category(self):
        g = CategoryGraph.from_edges(
            [("a1", "Cat", "article"), ("a2", "Cat", "article"), ("a3", "Cat", "article")]
        )
        assert count_members(g, ["Cat"], 0) == {"articles": 3, "categories": 1}

    def test_multi_parent_article_counted_once(self):
        g = CategoryGraph.from_edges(
            [("Biochemistry", "Biology", "article"), ("Biochemistry", "Chemistry", "article"),
             ("other", "Biology", "article")]
        )
        counts = count_members(g, ["Biology", "Chemistry"], 0)
        assert counts == {"articles": 2, "categories": 2}

    def test_empty_roots(self):
        assert count_members(MUTUAL_PARENTS, [], 3) == {"articles": 0, "categories": 0}

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_relaxation_oracle(self, seed, depth):
        edges = random_hierarchy(seed, cyclic=True)
        g = CategoryGraph.from_edges(edges)
        got = count_members(g, ["c0", "c1"], depth)
        articles, cats = closure_member_counts(edges, ["c0", "c1"], depth)
        assert got == {"articles": articles, "categories": cats}

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_levels_match_oracle_at_every_depth(self, seed):
        edges = random_hierarchy(seed, cyclic=True)
        g = CategoryGraph.from_edges(edges)
        expected = [closure_member_counts(edges, ["c0", "c1"], k)[::-1] for k in range(8)]
        assert count_members_by_level(g, ["c0", "c1"], 7) == expected

    def test_deep_closure_equals_transitive_closure(self):
        edges = random_hierarchy(123, n_cats=300, n_articles=700, cyclic=True)
        g = CategoryGraph.from_edges(edges)
        got = count_members(g, ["c0"], 10**6)
        articles, cats = closure_member_counts(edges, ["c0"], 10**6)
        assert got == {"articles": articles, "categories": cats}


class TestPresets:
    def test_two_lists_shipped(self):
        presets = wag_root_presets()
        assert set(presets) == {"wag_core", "wag_broad"}
        assert len(presets["wag_core"]) == 8
        assert len(presets["wag_broad"]) == 11
        assert "Mathematics" in presets["wag_core"]
        assert set(presets["wag_core"]) & set(presets["wag_broad"])


class TestTermination:
    def test_cyclic_traversal_is_bounded(self):
        # a dense cyclic mess: traversal must stay essentially instant
        edges = random_hierarchy(7, n_cats=800, n_articles=1200, cyclic=True)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.integers(0, 800, size=2)
            if a != b:
                edges.append((f"c{a}", f"c{b}", "category"))
        g = CategoryGraph.from_edges(edges)
        start = time.perf_counter()
        result = descendants(g, ["c0"], 10**9)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert result
