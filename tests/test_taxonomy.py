"""Category hierarchy traversal, cycle detection, and membership counts."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowgrow.dataio import DataFormatError
from knowgrow.taxonomy import (
    count_members,
    count_members_by_level,
    detect_cycles,
    wag_root_presets,
)

from conftest import category_graph
from _oracles import (
    category_fault,
    closure_member_counts,
    cyclic_components,
    topological_order_exists,
)


def cat_edges(*pairs):
    return [(c, p, "category") for c, p in pairs]


MUTUAL_PARENTS = category_graph(
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
            category_graph(
                [("X", "Cat", "article"), ("Child", "X", "category")]
            )

    def test_kind_conflict_rejected(self):
        with pytest.raises(ValueError, match="both"):
            category_graph(
                [("X", "Cat", "article"), ("X", "Other", "category")]
            )

    def test_fault_line_is_the_first_line_of_its_triple(self):
        edges = [("X", "Cat", "article"), ("X", "Cat", "article"), ("Cat", "Top", "category"),
                 ("Child", "X", "category"), ("Child", "X", "category"), ("B", "A", "page")]
        with pytest.raises(DataFormatError, match="'X' used both") as info:
            category_graph(edges)
        assert info.value.line == 4
        with pytest.raises(DataFormatError, match="kind 'page'") as info:
            category_graph(edges[:3] + edges[5:])
        assert info.value.line == 4

    @pytest.mark.parametrize("edges, message, line", [
        ([("A", "Root", "category"), ("B", "A", "page"), ("X", "A", "article"),
          ("Y", "X", "category")], "unknown node kind 'page' (expected article/category)", 2),
        ([("X", "Root", "article"), ("X", "Y", "category"), ("B", "A", "page")],
         "node 'X' used both as article and as category", 2),
        ([("X", "Root", "article"), ("New", "X", "category")],
         "node 'X' used both as article and as category", 2),
        ([("X", "Root", "article"), ("B", "Root", "category"), ("X", "B", "page")],
         "unknown node kind 'page' (expected article/category)", 3),
        ([("A", "Root", "category\x00")],
         "unknown node kind 'category\\x00' (expected article/category)", 1),
    ], ids=["unknown-then-clash", "clash-then-unknown", "clash-on-parent", "unknown-on-known",
            "trailing-nul"])
    def test_first_fault_in_edge_order(self, edges, message, line):
        with pytest.raises(DataFormatError) as info:
            category_graph(edges)
        assert (str(info.value), info.value.line) == (f"{info.value.path}:{line}: {message}", line)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_first_fault_matches_the_per_triple_oracle(self, seed):
        rng = np.random.default_rng(seed)
        edges = random_hierarchy(seed, n_cats=12, n_articles=15, cyclic=True)
        faults = [("c1", "c2", "page"), ("a1", "c3", "category"), ("c4", "a2", "category"),
                  ("c5", "c6", "article"), ("a3", "a3", "article"), ("c7", "c7", "page"),
                  ("c8", "c9", "category\x00")]
        for _ in range(int(rng.integers(0, 3))):
            edges.insert(int(rng.integers(0, len(edges) + 1)), faults[rng.integers(len(faults))])
        for _ in range(int(rng.integers(0, 4))):  # repeated lines, before or after their first
            edges.insert(int(rng.integers(0, len(edges) + 1)), edges[rng.integers(len(edges))])
        expected = category_fault(edges)
        if expected is None:
            assert len(category_graph(edges)) == len({n for c, p, _ in edges for n in (c, p)})
            return
        with pytest.raises(DataFormatError) as info:
            category_graph(edges)
        row, message = expected
        assert (str(info.value), info.value.line) == (f"{info.value.path}:{row + 1}: {message}",
                                                       row + 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            category_graph([("A", "B", "page")])

    def test_repeated_triples_link_once_in_first_order(self):
        g = category_graph(
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
            i = g.names.index(name)
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
        g = category_graph(
            cat_edges(("Algebra", "Mathematics"), ("Linear algebra", "Algebra"))
            + [("a1", "Linear algebra", "article")]
        )
        assert detect_cycles(g) == []

    def test_three_cycle(self):
        g = category_graph(cat_edges(("A", "B"), ("B", "C"), ("C", "A")))
        cycles = detect_cycles(g)
        assert len(cycles) == 1
        assert sorted(cycles[0]) == ["A", "B", "C"]

    def test_self_parent(self):
        g = category_graph(cat_edges(("Loop", "Loop"), ("X", "Loop")))
        assert detect_cycles(g) == [["Loop"]]

    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_empty_iff_topological_order_exists(self, seed, cyclic):
        edges = random_hierarchy(seed, cyclic=cyclic)
        g = category_graph(edges)
        cat_names = sorted({p for _, p, _ in edges} | {c for c, _, k in edges if k == "category"})
        cat_only = [(c, p) for c, p, k in edges if k == "category"]
        assert (detect_cycles(g) == []) == topological_order_exists(cat_names, cat_only)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_one_closed_chain_per_cyclic_component(self, seed):
        edges = random_hierarchy(seed, cyclic=True)
        rng = np.random.default_rng(seed)
        edges += cat_edges(*((f"c{i}", f"c{i}") for i in rng.integers(0, 50, size=3)))
        g = category_graph(edges)
        comps = cyclic_components([(c, p) for c, p, k in edges if k == "category"])
        cycles = detect_cycles(g)
        assert len(cycles) == len(comps)
        for cycle in cycles:
            ids = [g.names.index(name) for name in cycle]
            assert all(g.up[a, b] == 1 for a, b in zip(ids, ids[1:] + ids[:1]))
            comp = next(c for c in comps if cycle[0] in c)
            assert set(cycle) <= comp
            assert ids[0] == min(g.names.index(name) for name in comp)


class TestCountMembers:
    def test_single_category(self):
        g = category_graph(
            [("a1", "Cat", "article"), ("a2", "Cat", "article"), ("a3", "Cat", "article")]
        )
        assert count_members(g, ["Cat"], 0) == {"articles": 3, "categories": 1}

    def test_multi_parent_article_counted_once(self):
        g = category_graph(
            [("Biochemistry", "Biology", "article"), ("Biochemistry", "Chemistry", "article"),
             ("other", "Biology", "article")]
        )
        counts = count_members(g, ["Biology", "Chemistry"], 0)
        assert counts == {"articles": 2, "categories": 2}

    def test_empty_roots(self):
        assert count_members(MUTUAL_PARENTS, [], 3) == {"articles": 0, "categories": 0}

    def test_cycle_terminates(self):
        assert count_members(MUTUAL_PARENTS, ["Physics"], 3) == {"articles": 0, "categories": 2}

    def test_unknown_root(self):
        with pytest.raises(KeyError):
            count_members(MUTUAL_PARENTS, ["Chemistry"], 1)

    def test_article_root_rejected(self):
        g = category_graph([("a1", "Cat", "article")])
        with pytest.raises(ValueError, match="article"):
            count_members(g, ["a1"], 1)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_relaxation_oracle(self, seed, depth):
        edges = random_hierarchy(seed, cyclic=True)
        g = category_graph(edges)
        got = count_members(g, ["c0", "c1"], depth)
        articles, cats = closure_member_counts(edges, ["c0", "c1"], depth)
        assert got == {"articles": articles, "categories": cats}

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_levels_match_oracle_at_every_depth(self, seed):
        edges = random_hierarchy(seed, cyclic=True)
        g = category_graph(edges)
        expected = [closure_member_counts(edges, ["c0", "c1"], k)[::-1] for k in range(8)]
        assert count_members_by_level(g, ["c0", "c1"], 7) == expected

    def test_deep_closure_equals_transitive_closure(self):
        edges = random_hierarchy(123, n_cats=300, n_articles=700, cyclic=True)
        g = category_graph(edges)
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
        g = category_graph(edges)
        start = time.perf_counter()
        result = count_members_by_level(g, ["c0"], 10**9)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert result[-1][0] >= 1
