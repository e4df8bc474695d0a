"""Disruption scores against brute-force enumeration, ranking, intersections."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowgrow import disruption
from knowgrow.disruption import (
    BLOCK_WORK,
    CitationError,
    CitationGraph,
    PaperError,
    d_index_all,
    intersect_analysis,
    rank,
)

from _oracles import naive_disruption


def build(papers, edges):
    return CitationGraph.build(papers, edges)


def score(g, pid):
    """``(n_i, n_j, n_k, d, defined)`` of one paper, read from the scored rows."""
    counts, d = d_index_all(g)
    i = g.ids.index(pid)
    return (*counts[i].tolist(), d[i], counts[i].sum() > 0)


def ranked(g, key="citations", k=None, year_range=None):
    """Ids ranked by citations or disruption."""
    values = d_index_all(g)[1] if key == "disruption" else g.citation_counts()
    return [g.ids[i] for i in rank(g, values, k, year_range)]


def random_citation_dag(seed: int, max_nodes: int = 200, max_edges: int = 2000):
    """Random DAG: papers cite only earlier papers (by construction)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, max_nodes + 1))
    papers = [(f"p{i:04d}", 1950 + (i % 60)) for i in range(n)]
    wanted = int(rng.integers(n, max_edges + 1))
    seen = set()
    edges = []
    for _ in range(wanted):
        i = int(rng.integers(1, n))
        j = int(rng.integers(0, i))
        if (i, j) not in seen:
            seen.add((i, j))
            edges.append((f"p{i:04d}", f"p{j:04d}"))
    return papers, edges


class TestBuild:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build([("a", 2000)], [("a", "ghost")])

    def test_self_citation_rejected(self):
        with pytest.raises(ValueError, match="self"):
            build([("a", 2000)], [("a", "a")])

    def test_errors_name_the_id_and_unknown_ids_come_first(self):
        papers = [("a", 2000), ("b", 2001)]
        with pytest.raises(ValueError, match="self-citation on 'b'"):
            build(papers, [("a", "b"), ("b", "b")])
        with pytest.raises(ValueError, match="unknown paper id 'ghost'"):
            build(papers, [("b", "b"), ("a", "ghost")])

    @pytest.mark.parametrize("edges, row", [
        ([("a", "b"), ("b", "b")], 1),
        ([("a", "b"), ("b", "a"), ("ghost", "a"), ("a", "ghost")], 2),
        ([("b", "b"), ("a", "ghost")], 1),
    ], ids=["self", "unknown", "unknown-first"])
    def test_edge_errors_carry_the_pair_row(self, edges, row):
        with pytest.raises(CitationError) as info:
            build([("a", 2000), ("b", 2001)], edges)
        assert info.value.row == row

    def test_year_range(self):
        with pytest.raises(ValueError, match="year"):
            build([("a", 1850)], [])

    def test_year_that_is_not_an_integer_names_its_row(self):
        with pytest.raises(PaperError, match="not a year: '19x0'") as info:
            build([("a", "19x0")], [])
        assert info.value.row == 0

    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            build([("a", 2000), ("a", 2001)], [])

    def test_rows_with_and_without_a_field_and_arrays_build_alike(self):
        rows = build([("a", 2000), ("b", "1990", "physics")], [("a", "b")])
        arrays = CitationGraph.from_arrays(["a", "b"], ["2000", "1990"], np.arange(2),
                                           np.array([0, 1]), str)
        for g in (rows, arrays):
            assert (g.ids, g.years.tolist(), g.cites.toarray().tolist()) == (
                ["a", "b"], [2000, 1990], [[False, True], [False, False]])

    def test_no_papers(self):
        g = build([], [])
        assert (len(g), g.cites.shape, g.duplicate_count) == (0, (0, 0), 0)
        with pytest.raises(CitationError, match="unknown paper id 'a'") as info:
            build([], [("a", "b")])
        assert info.value.row == 0


class TestDIndex:
    def test_all_citers_focal_only(self):
        g = build(
            [("f", 1990), ("c1", 2000), ("c2", 2000), ("c3", 2000)],
            [("c1", "f"), ("c2", "f"), ("c3", "f")],
        )
        assert score(g, "f") == (3, 0, 0, 1.0, True)

    def test_all_citers_consolidating(self):
        g = build(
            [("f", 1990), ("r", 1980), ("c1", 2000), ("c2", 2000), ("c3", 2000)],
            [("f", "r")] + [(c, x) for c in ("c1", "c2", "c3") for x in ("f", "r")],
        )
        assert score(g, "f") == (0, 3, 0, -1.0, True)

    def test_mixed_fixture(self):
        # 2 cite focal only, 1 cites both, 1 cites the reference only
        edges = [("f", "r"), ("i1", "f"), ("i2", "f"), ("j1", "f"), ("j1", "r"), ("k1", "r")]
        g = build(
            [("f", 1990), ("r", 1980), ("i1", 2000), ("i2", 2000), ("j1", 2000), ("k1", 2000)],
            edges,
        )
        s = score(g, "f")
        assert s[:3] == (2, 1, 1)
        assert s[3] == pytest.approx(0.25)
        assert s[:4] == naive_disruption(g.ids, edges, "f")

    def test_chain_excludes_focal_from_nk(self):
        g = build([("a", 2000), ("b", 1990), ("c", 1980)], [("a", "b"), ("b", "c")])
        # a cites b but not c; b itself is not a subsequent work of b
        assert score(g, "b") == (1, 0, 0, 1.0, True)

    def test_zero_denominator_flagged(self):
        g = build([("solo", 2000), ("other", 2001)], [])
        assert score(g, "solo") == (0, 0, 0, 0.0, False)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_random_dags(self, seed):
        papers, edges = random_citation_dag(seed, max_nodes=60, max_edges=400)
        g = build(papers, edges)
        counts, d = d_index_all(g)
        assert counts.shape == (len(papers), 3) and counts.dtype == np.int64
        ids = [p for p, _ in papers]
        assert g.ids == ids
        for i, pid in enumerate(ids):
            expected = naive_disruption(ids, edges, pid)
            assert tuple(counts[i].tolist()) == expected[:3]
            if counts[i].sum() > 0:
                assert d[i] == pytest.approx(expected[3])
            assert -1.0 <= d[i] <= 1.0

    def test_adding_focal_only_citer_increases_d(self):
        papers = [("f", 1990), ("r", 1980), ("j1", 2000), ("k1", 2000)]
        edges = [("f", "r"), ("j1", "f"), ("j1", "r"), ("k1", "r")]
        d1 = score(build(papers, edges), "f")[3]
        d2 = score(build(papers + [("new", 2005)], edges + [("new", "f")]), "f")[3]
        assert d2 > d1

    def test_extremes_characterization(self):
        papers, edges = random_citation_dag(77, max_nodes=80, max_edges=500)
        g = build(papers, edges)
        counts, d = d_index_all(g)
        for (n_i, n_j, n_k), value in zip(counts.tolist(), d.tolist()):
            if value == 1.0:
                assert n_i > 0 and n_j == 0 and n_k == 0
            if value == -1.0:
                assert n_j > 0 and n_i == 0 and n_k == 0


def random_citation_graph(seed: int, n: int = 60, m: int = 400):
    """Random citation graph that is no DAG: mutual citations, references
    citing each other, a hub reference cited by most papers, repeated lines."""
    rng = np.random.default_rng(seed)
    papers = [(f"p{i:04d}", 2000) for i in range(n)]
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2)) if a != b]
    pairs += [(b, a) for a, b in pairs[:20]]
    pairs += [(i, 0) for i in range(1, n) if rng.random() < 0.8]
    pairs += pairs[:10]
    return papers, [(f"p{a:04d}", f"p{b:04d}") for a, b in pairs]


class TestCouplingKernel:
    @pytest.mark.parametrize("budget", [BLOCK_WORK, 1])
    def test_oracle_equivalence_cyclic_graphs(self, monkeypatch, budget):
        # budget 1 puts every row that does any work in a block of its own
        monkeypatch.setattr(disruption, "BLOCK_WORK", budget)
        for seed in range(5):
            papers, edges = random_citation_graph(seed)
            g = build(papers, edges)
            ids = [p for p, _ in papers]
            assert g.ids == ids
            counts, d = d_index_all(g)
            for i, pid in enumerate(ids):
                expected = naive_disruption(ids, edges, pid)
                assert tuple(counts[i].tolist()) == expected[:3]
                assert d[i] == pytest.approx(expected[3])

    def test_duplicate_citation_counts_once(self):
        papers = [("f", 1990), ("r", 1980), ("c", 2000), ("e", 2001)]
        edges = [("f", "r"), ("c", "f"), ("c", "f"), ("e", "r")]
        g = build(papers, edges)
        assert g.duplicate_count == 1
        assert g.citation_counts().tolist() == [1, 2, 0, 0]
        assert score(g, "f")[:4] == naive_disruption(["f", "r", "c", "e"], edges, "f")
        assert ranked(g) == ["r", "f", "c", "e"]

    def test_rank_orders_by_d_then_id(self):
        papers, edges = random_citation_graph(3)
        g = build(papers, edges)
        _, d = d_index_all(g)
        row = {pid: i for i, pid in enumerate(g.ids)}
        assert ranked(g, "disruption") == sorted(g.ids, key=lambda p: (-d[row[p]], p))


# partial ranges (empty where lo > hi), ranges past every year and beyond int64
YEAR_RANGES = st.one_of(
    st.none(),
    st.tuples(st.integers(1940, 2020), st.integers(1940, 2020)),
    st.sampled_from([(2101, 2200), (-10**30, 10**30), (10**30, 10**31), (-10**30, 1975)]),
)


class TestRank:
    FIXTURE = (
        [("w", 2000), ("x", 2001), ("y", 2002), ("z", 1960)],
        [("x", "w"), ("y", "w"), ("z", "w"), ("y", "x"), ("w", "z")],
    )

    def test_citations_hand_sorted(self):
        g = build(*self.FIXTURE)
        # in-degrees: w=3, x=1, z=1, y=0; tie x/z broken by id
        assert ranked(g) == ["w", "x", "z", "y"]

    def test_k_larger_than_population(self):
        g = build(*self.FIXTURE)
        assert len(ranked(g, k=100)) == 4

    def test_tie_broken_by_id(self):
        g = build([("b", 2000), ("a", 2000), ("c", 2001)], [("c", "a"), ("b", "a")])
        assert ranked(g, k=3) == ["a", "b", "c"]

    def test_ties_break_by_code_point_not_case_or_length(self):
        # every value ties: the order is Python's str order, "É" (U+00C9) before "é" (U+00E9)
        ids = ["éé", "É", "é", "Éé", "ÉÉ", "éÉ", "e", "E"]
        g = build([(pid, 2000) for pid in ids], [])
        assert ranked(g) == ["E", "e", "É", "ÉÉ", "Éé", "é", "éÉ", "éé"]
        assert ranked(g, "disruption", k=3) == ["E", "e", "É"]

    def test_year_filter(self):
        g = build(*self.FIXTURE)
        assert ranked(g, year_range=(2000, 2001)) == ["w", "x"]

    @pytest.mark.parametrize("key", ["citations", "disruption"])
    def test_year_bounds_beyond_int64(self, key):
        g = build(*self.FIXTURE)
        assert ranked(g, key, year_range=(-10**30, 10**30)) == ranked(g, key)
        assert ranked(g, key, year_range=(2001, 10**30)) == ranked(g, key, year_range=(2001, 2100))
        assert ranked(g, key, year_range=(-10**30, 1960)) == ["z"]
        assert ranked(g, key, year_range=(10**30, 10**31)) == []

    def test_invariant_to_edge_order(self):
        papers, edges = self.FIXTURE
        g1 = build(papers, edges)
        g2 = build(papers, list(reversed(edges)))
        assert ranked(g1) == ranked(g2)

    def test_disruption_key(self):
        g = build(*self.FIXTURE)
        _, d = d_index_all(g)
        rows = rank(g, d, k=2)
        assert rows.dtype == np.int64 and len(rows) == 2
        assert d[rows[0]] >= d[rows[1]]

    def test_k_validation(self):
        g = build(*self.FIXTURE)
        with pytest.raises(ValueError, match="k must be >= 1"):
            rank(g, g.citation_counts(), k=0)

    @given(seed=st.integers(0, 10_000), cyclic=st.booleans(),
           key=st.sampled_from(["citations", "disruption"]),
           size=st.sampled_from(["none", "one", "n", "more"]), year_range=YEAR_RANGES)
    @settings(max_examples=80, deadline=None)
    def test_matches_sorted_reference(self, seed, cyclic, key, size, year_range):
        if cyclic:
            papers, edges = random_citation_graph(seed)
        else:
            papers, edges = random_citation_dag(seed, max_nodes=60, max_edges=400)
        g = build(papers, edges)
        values = d_index_all(g)[1] if key == "disruption" else g.citation_counts()
        n = len(g)
        k = {"none": None, "one": 1, "n": n, "more": n + 7}[size]
        lo, hi = year_range or (-10**30, 10**30)
        years, vals, ids = g.years.tolist(), values.tolist(), g.ids
        expected = sorted((i for i in range(n) if lo <= years[i] <= hi),
                          key=lambda i: (-vals[i], ids[i]))[:k]
        assert rank(g, values, k, year_range).tolist() == expected


class TestIntersect:
    def test_prefix_subset_scores_one(self):
        ctop = [f"p{i}" for i in range(100)]
        a = set(ctop[:10])
        rows = intersect_analysis(a, {"zzz"}, ctop, [10.0])
        assert rows[0]["a_frac_of_set"] == 1.0
        assert rows[0]["a_frac_of_prefix"] == 1.0
        assert rows[0]["b_frac_of_set"] == 0.0

    def test_disjoint_always_zero(self):
        ctop = [f"p{i}" for i in range(50)]
        rows = intersect_analysis({"x"}, {"y"}, ctop, [5.0, 50.0, 100.0])
        assert all(r["a_frac_of_set"] == 0.0 and r["b_frac_of_set"] == 0.0 for r in rows)

    def test_constructed_quarter_overlap(self):
        # |a| = 1200, |a & prefix| = 300 at p = 10 -> fraction 0.25
        ctop = [f"c{i:05d}" for i in range(12_000)]
        prefix = ctop[:1200]
        a = set(prefix[:300]) | {f"x{i}" for i in range(900)}
        rows = intersect_analysis(a, set(), ctop, [10.0])
        assert rows[0]["prefix_size"] == 1200
        assert rows[0]["a_count"] == 300
        assert rows[0]["a_frac_of_set"] == pytest.approx(0.25)

    def test_prefix_size_floors_the_decimal_percentile(self):
        # 18.4% of 375 is exactly 69; 375 * 18.4 / 100.0 in binary is 68.99...
        ctop = [f"c{i:03d}" for i in range(375)]
        rows = intersect_analysis(set(ctop), set(), ctop, [18.4, 5.0, 10.0, 20.0])
        assert [r["prefix_size"] for r in rows] == [69, 18, 37, 75]
        assert rows[0]["a_count"] == 69

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            intersect_analysis(set(), set(), [], [10.0])
        with pytest.raises(ValueError, match="percentile"):
            intersect_analysis({"a"}, set(), ["a"], [0.0])
        with pytest.raises(ValueError, match="percentile"):
            intersect_analysis({"a"}, set(), ["a"], [150.0])

