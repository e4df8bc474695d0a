"""Disruption scores against brute-force enumeration, ranking, intersections."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowgrow import disruption
from knowgrow.disruption import (
    BLOCK_WORK,
    CitationGraph,
    d_index,
    d_index_all,
    inclusion_lag,
    intersect_analysis,
    rank,
)

from _oracles import naive_disruption


def build(papers, edges):
    return CitationGraph.build(papers, edges)


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

    def test_year_range(self):
        with pytest.raises(ValueError, match="year"):
            build([("a", 1850)], [])

    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            build([("a", 2000), ("a", 2001)], [])


class TestDIndex:
    def test_all_citers_focal_only(self):
        g = build(
            [("f", 1990), ("c1", 2000), ("c2", 2000), ("c3", 2000)],
            [("c1", "f"), ("c2", "f"), ("c3", "f")],
        )
        s = d_index(g, "f")
        assert (s.n_i, s.n_j, s.n_k) == (3, 0, 0)
        assert s.d == 1.0

    def test_all_citers_consolidating(self):
        g = build(
            [("f", 1990), ("r", 1980), ("c1", 2000), ("c2", 2000), ("c3", 2000)],
            [("f", "r")] + [(c, x) for c in ("c1", "c2", "c3") for x in ("f", "r")],
        )
        s = d_index(g, "f")
        assert (s.n_i, s.n_j, s.n_k) == (0, 3, 0)
        assert s.d == -1.0

    def test_mixed_fixture(self):
        # 2 cite focal only, 1 cites both, 1 cites the reference only
        g = build(
            [("f", 1990), ("r", 1980), ("i1", 2000), ("i2", 2000), ("j1", 2000), ("k1", 2000)],
            [("f", "r"), ("i1", "f"), ("i2", "f"), ("j1", "f"), ("j1", "r"), ("k1", "r")],
        )
        s = d_index(g, "f")
        assert (s.n_i, s.n_j, s.n_k) == (2, 1, 1)
        assert s.d == pytest.approx(0.25)
        oracle = naive_disruption([p for p in g.ids], [("f", "r"), ("i1", "f"), ("i2", "f"),
                                                       ("j1", "f"), ("j1", "r"), ("k1", "r")], "f")
        assert (s.n_i, s.n_j, s.n_k, s.d) == oracle

    def test_chain_excludes_focal_from_nk(self):
        g = build([("a", 2000), ("b", 1990), ("c", 1980)], [("a", "b"), ("b", "c")])
        s = d_index(g, "b")
        # a cites b but not c; b itself is not a subsequent work of b
        assert (s.n_i, s.n_j, s.n_k) == (1, 0, 0)
        assert s.d == 1.0

    def test_zero_denominator_flagged(self):
        g = build([("solo", 2000), ("other", 2001)], [])
        s = d_index(g, "solo")
        assert s.d == 0.0
        assert not s.defined

    def test_unknown_focal(self):
        g = build([("a", 2000)], [])
        with pytest.raises(KeyError):
            d_index(g, "zzz")

    def test_batch_matches_single(self):
        papers, edges = random_citation_dag(5, max_nodes=60, max_edges=300)
        g = build(papers, edges)
        batch = d_index_all(g)
        assert list(batch) == sorted(p for p, _ in papers)
        for pid, _ in papers:
            assert batch[pid] == d_index(g, pid)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_random_dags(self, seed):
        papers, edges = random_citation_dag(seed, max_nodes=60, max_edges=400)
        g = build(papers, edges)
        scores = d_index_all(g)
        ids = [p for p, _ in papers]
        for pid in ids:
            expected = naive_disruption(ids, edges, pid)
            s = scores[pid]
            assert (s.n_i, s.n_j, s.n_k) == expected[:3]
            if s.defined:
                assert s.d == pytest.approx(expected[3])
            assert -1.0 <= s.d <= 1.0

    def test_adding_focal_only_citer_increases_d(self):
        papers = [("f", 1990), ("r", 1980), ("j1", 2000), ("k1", 2000)]
        edges = [("f", "r"), ("j1", "f"), ("j1", "r"), ("k1", "r")]
        g1 = build(papers, edges)
        d1 = d_index(g1, "f").d
        g2 = build(papers + [("new", 2005)], edges + [("new", "f")])
        d2 = d_index(g2, "f").d
        assert d2 > d1

    def test_extremes_characterization(self):
        papers, edges = random_citation_dag(77, max_nodes=80, max_edges=500)
        g = build(papers, edges)
        for s in d_index_all(g).values():
            if s.d == 1.0:
                assert s.n_i > 0 and s.n_j == 0 and s.n_k == 0
            if s.d == -1.0:
                assert s.n_j > 0 and s.n_i == 0 and s.n_k == 0


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
            scores = d_index_all(g)
            for pid in ids:
                expected = naive_disruption(ids, edges, pid)
                s = scores[pid]
                assert (s.n_i, s.n_j, s.n_k) == expected[:3]
                assert s.d == pytest.approx(expected[3])
                assert d_index(g, pid) == s

    def test_duplicate_citation_counts_once(self):
        papers = [("f", 1990), ("r", 1980), ("c", 2000), ("e", 2001)]
        edges = [("f", "r"), ("c", "f"), ("c", "f"), ("e", "r")]
        g = build(papers, edges)
        assert g.duplicate_count == 1
        assert g.citation_counts().tolist() == [1, 2, 0, 0]
        s = d_index(g, "f")
        assert (s.n_i, s.n_j, s.n_k, s.d) == naive_disruption(["f", "r", "c", "e"], edges, "f")
        assert rank(g, "citations") == ["r", "f", "c", "e"]

    def test_rank_reuses_scores(self, monkeypatch):
        papers, edges = random_citation_graph(3)
        g = build(papers, edges)
        scores = d_index_all(g)

        def fail(*args):
            raise AssertionError("scored twice")

        monkeypatch.setattr(disruption, "_counts", fail)
        ordered = rank(g, "disruption")
        assert ordered == sorted(scores, key=lambda p: (-scores[p].d, p))


class TestRank:
    FIXTURE = (
        [("w", 2000), ("x", 2001), ("y", 2002), ("z", 1960)],
        [("x", "w"), ("y", "w"), ("z", "w"), ("y", "x"), ("w", "z")],
    )

    def test_citations_hand_sorted(self):
        g = build(*self.FIXTURE)
        # in-degrees: w=3, x=1, z=1, y=0; tie x/z broken by id
        assert rank(g, "citations") == ["w", "x", "z", "y"]

    def test_k_larger_than_population(self):
        g = build(*self.FIXTURE)
        assert len(rank(g, "citations", k=100)) == 4

    def test_tie_broken_by_id(self):
        g = build([("b", 2000), ("a", 2000), ("c", 2001)], [("c", "a"), ("b", "a")])
        assert rank(g, "citations", k=3) == ["a", "b", "c"]

    def test_year_filter(self):
        g = build(*self.FIXTURE)
        assert rank(g, "citations", year_range=(2000, 2001)) == ["w", "x"]

    def test_invariant_to_edge_order(self):
        papers, edges = self.FIXTURE
        g1 = build(papers, edges)
        g2 = build(papers, list(reversed(edges)))
        assert rank(g1, "citations") == rank(g2, "citations")

    def test_disruption_key(self):
        g = build(*self.FIXTURE)
        ordered = rank(g, "disruption", k=2)
        scores = d_index_all(g)
        assert scores[ordered[0]].d >= scores[ordered[1]].d

    def test_k_validation(self):
        g = build(*self.FIXTURE)
        with pytest.raises(ValueError):
            rank(g, "citations", k=0)
        with pytest.raises(ValueError, match="key"):
            rank(g, "pagerank")


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

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            intersect_analysis(set(), set(), [], [10.0])
        with pytest.raises(ValueError, match="percentile"):
            intersect_analysis({"a"}, set(), ["a"], [0.0])
        with pytest.raises(ValueError, match="percentile"):
            intersect_analysis({"a"}, set(), ["a"], [150.0])


class TestInclusionLag:
    def test_identical_years(self):
        r = inclusion_lag([2000, 2001], [2000, 2001])
        assert r["mean_lag"] == 0.0
        assert r["negative_count"] == 0

    def test_constant_offset(self):
        r = inclusion_lag([1990, 2000, 2010], [1998, 2008, 2018])
        assert r["mean_lag"] == 8.0

    def test_mixed_hand_mean(self):
        r = inclusion_lag([2000, 2000, 2000], [2003, 2008, 2013])
        assert r["mean_lag"] == pytest.approx(8.0)
        assert r["lags"] == [3, 8, 13]

    def test_negative_flagged(self):
        r = inclusion_lag([2000, 2000], [1999, 2005])
        assert r["negative_count"] == 1

    def test_per_field(self):
        r = inclusion_lag([2000, 2000, 2000], [2004, 2010, 2006], fields=["bio", "bio", "cs"])
        assert r["per_field"] == {"bio": 7.0, "cs": 6.0}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inclusion_lag([2000], [2001, 2002])
        with pytest.raises(ValueError, match="align"):
            inclusion_lag([2000], [2001], fields=["a", "b"])
