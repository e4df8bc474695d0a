"""Snapshot-graph metrics against hand values and naive BFS oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowgrow import graph_metrics
from knowgrow.graph_metrics import (
    PowerlawFit,
    SnapshotGraph,
    avg_shortest_path,
    clustering_coefficient,
    degree_entropy,
    density,
    effective_diameter,
    lognormal_fit,
    mean_degree,
    normalized_structural_entropy,
    powerlaw_ccdf,
    powerlaw_fit,
)

from conftest import random_digraph
from _oracles import (all_pairs_stats, bfs_distances, local_clustering, sample_discrete_powerlaw,
                      spgemm_clustering)


def graph(edges, n=None):
    return SnapshotGraph.from_edges(edges, n=n)


K3 = graph([(i, j) for i in range(3) for j in range(3) if i != j])
CYCLE3 = graph([(0, 1), (1, 2), (2, 0)])
PATH5 = graph([(0, 1), (1, 2), (2, 3), (3, 4)])
STAR = graph([(0, i) for i in range(1, 11)], n=11)

# the default step choice, then every level top-down, then every level bottom-up
STEP_SHARES = [graph_metrics.TOP_DOWN_SHARE, math.inf, 0.0]


def oracle_histogram(n, edges, sources):
    """Counts of distances d >= 1 from ``sources``, by deque BFS."""
    adjacency = {}
    for s, d in np.asarray(edges).tolist():
        adjacency.setdefault(s, []).append(d)
    dists = [d for src in sources for d in bfs_distances(n, adjacency, int(src)) if d > 0]
    return np.bincount(np.array(dists, dtype=np.intp), minlength=n)


@pytest.fixture
def sweeps(monkeypatch):
    """The source arrays of every BFS sweep run while the test is active."""
    seen = []
    real = graph_metrics._bfs_sweep

    def spy(out, inn, chosen, hist):
        seen.append(chosen.copy())
        real(out, inn, chosen, hist)

    monkeypatch.setattr(graph_metrics, "_bfs_sweep", spy)
    return seen


class TestConstruction:
    def test_dedup_and_self_loops(self):
        g = graph([(0, 1), (0, 1), (1, 1), (1, 2)], n=3)
        assert g.arc_count == 2
        assert g.duplicate_count == 1
        assert g.self_loop_count == 1

    def test_endpoint_validation(self):
        with pytest.raises(ValueError, match="endpoint"):
            graph([(0, 5)], n=3)

    def test_empty_graph(self):
        g = graph([], n=4)
        assert g.arc_count == 0
        assert effective_diameter(g, sources=4) == 0
        assert avg_shortest_path(g, sources=4) == 0.0


def scipy_rows(m):
    """``(indptr, indices)`` of a scipy matrix, each row's columns sorted."""
    m = m.tocsr()
    m.sort_indices()
    return m.indptr, m.indices


class TestAdjacency:
    """The numpy CSR rows against scipy's, built from the arcs."""

    def test_rows_match_scipy(self, rng):
        from scipy import sparse

        from knowgrow import ba

        made = [ba.generate(ba.BAParams(n=200, m=2, seed=1)), graph([], n=3)]
        for _ in range(8):
            n = int(rng.integers(2, 60))
            edges = random_digraph(rng, n, int(rng.integers(0, 4 * n)))
            made += [graph(edges, n=n), SnapshotGraph.from_edges(edges, n=n, mirror=True)]
        for g in made:
            out = sparse.coo_matrix((np.ones(g.arc_count), (g.src, g.dst)), shape=(g.n, g.n))
            undirected = out.tocsr().maximum(out.T.tocsr())
            for ours, theirs in ((g.out_csr(), out), (g.in_csr(), out.T),
                                 (g.undirected_csr(), undirected)):
                for x, y in zip(ours, scipy_rows(theirs)):
                    assert np.array_equal(x, y)

    def test_sorted_arcs_are_the_rows(self):
        g = graph([(2, 0), (0, 1), (0, 2)], n=3)
        indptr, indices = g.out_csr()
        assert indices is g.dst  # from_edges sorted them: not copied
        assert indptr.tolist() == [0, 2, 2, 3]


class TestDensityAndDegree:
    def test_complete_digraph(self):
        assert density(K3) == pytest.approx(1.0)

    def test_directed_cycle(self):
        assert density(CYCLE3) == pytest.approx(0.5)
        assert mean_degree(CYCLE3) == pytest.approx(1.0)

    def test_star_mean_degree(self):
        assert mean_degree(STAR) == pytest.approx(10.0 / 11.0)

    def test_ba_graph_density_scale(self, ba_large):
        # symmetric arcs double the directed density relative to m/n
        from knowgrow import ba

        params = ba.BAParams(n=1000, m=3, seed=5)
        g = ba.generate(params)
        undirected_density = (g.arc_count / 2) / (g.n * (g.n - 1))
        assert undirected_density == pytest.approx(params.m / params.n, rel=0.1)
        assert density(g) == pytest.approx(2 * undirected_density, rel=1e-12)

    def test_identity_mean_degree_vs_density(self, rng):
        for _ in range(5):
            edges = random_digraph(rng, 40, 200)
            g = graph(edges, n=40)
            assert mean_degree(g) == pytest.approx(density(g) * (g.n - 1), rel=1e-12)

    def test_density_needs_two_nodes(self):
        with pytest.raises(ValueError):
            density(graph([], n=1))


class TestEntropy:
    def test_regular_graph_zero(self):
        assert degree_entropy(CYCLE3) == pytest.approx(0.0)
        assert normalized_structural_entropy(CYCLE3) == pytest.approx(0.0)

    def test_two_level_histogram(self):
        g = graph([(0, 1), (1, 2), (2, 3)], n=4)  # total degrees 1,2,2,1
        assert degree_entropy(g) == pytest.approx(math.log(2))

    def test_all_distinct_out_degrees_normalize_to_one(self):
        n = 6
        g = graph([(i, j) for i in range(n) for j in range(i)], n=n)
        assert normalized_structural_entropy(g, "out") == pytest.approx(1.0)

    def test_entropy_nonnegative_and_normalized_in_unit_interval(self, rng):
        for _ in range(10):
            g = graph(random_digraph(rng, 30, 120), n=30)
            for direction in ("in", "out", "total"):
                h = degree_entropy(g, direction)
                assert h >= 0.0
                assert 0.0 <= normalized_structural_entropy(g, direction) <= 1.0

    def test_ba_entropy_band_and_stability(self):
        from knowgrow import ba

        values = {}
        for n in (1000, 10_000, 100_000):
            g = ba.generate(ba.BAParams(n=n, m=3, seed=42))
            values[n] = degree_entropy(g, "total")
        assert 1.5 <= values[10_000] <= 3.5
        center = values[10_000]
        assert all(abs(v - center) / center <= 0.15 for v in values.values())

    def test_direction_validation(self):
        with pytest.raises(ValueError, match="direction"):
            degree_entropy(CYCLE3, "sideways")


class TestDistances:
    def test_directed_path_effective_diameter(self):
        # 10 reachable pairs with distances 1,1,1,1,2,2,2,3,3,4
        assert effective_diameter(PATH5, 0.9, sources=5) == 3
        assert effective_diameter(PATH5, 1.0, sources=5) == 4

    def test_complete_digraph(self):
        assert effective_diameter(K3, sources=3) == 1

    def test_two_node_round_trip(self):
        g = graph([(0, 1), (1, 0)])
        assert avg_shortest_path(g, sources=2) == pytest.approx(1.0)

    def test_directed_path_of_three(self):
        g = graph([(0, 1), (1, 2)], n=3)
        assert avg_shortest_path(g, sources=3) == pytest.approx((1 + 1 + 2) / 3)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            effective_diameter(PATH5, 0.0)
        with pytest.raises(ValueError):
            effective_diameter(PATH5, 1.1)
        with pytest.raises(ValueError):
            effective_diameter(PATH5, 0.9, sources=0)

    @pytest.mark.parametrize("share", STEP_SHARES)
    def test_exhaustive_matches_all_pairs_oracle(self, rng, monkeypatch, share):
        monkeypatch.setattr(graph_metrics, "TOP_DOWN_SHARE", share)
        for trial in range(20):
            n = int(rng.integers(20, 200))
            edges = random_digraph(rng, n, int(rng.integers(n, 6 * n)))
            g = graph(edges, n=n)
            oracle_diam, oracle_avg, pooled = all_pairs_stats(n, [tuple(e) for e in edges])
            hist = graph_metrics._distance_histogram(g, n, 0)
            assert np.array_equal(hist, np.bincount(pooled, minlength=n))
            assert effective_diameter(g, 1.0, sources=n) == oracle_diam
            assert avg_shortest_path(g, sources=n) == pytest.approx(oracle_avg)

    @pytest.mark.parametrize("share", STEP_SHARES)
    def test_nodes_without_in_arcs_between_reached_nodes(self, monkeypatch, share):
        # odd nodes have no in-arcs: their in-adjacency rows are empty segments
        # between nonempty ones, which a bottom-up OR over segments must skip
        monkeypatch.setattr(graph_metrics, "TOP_DOWN_SHARE", share)
        n = 12
        edges = [(i, i + 2) for i in range(0, n - 2, 2)] + [(i, i + 1) for i in range(1, n - 1, 2)]
        edges.append((n - 1, 0))
        g = graph(edges, n=n)
        _, _, pooled = all_pairs_stats(n, edges)
        assert np.array_equal(
            graph_metrics._distance_histogram(g, n, 0), np.bincount(pooled, minlength=n)
        )

    @pytest.mark.parametrize("words_per_sweep", [None, 1, 2])  # None: BLOCK_VALUES as shipped
    def test_sampled_sources_match_bfs_oracle(self, rng, monkeypatch, sweeps, words_per_sweep):
        for sources in (1, 63, 64, 65, 130, 200):
            n = int(rng.integers(sources + 1, 400))
            edges = random_digraph(rng, n, int(rng.integers(n, 4 * n)))
            g = graph(edges, n=n)
            if words_per_sweep is not None:
                budget = words_per_sweep * (n + g.arc_count)
                monkeypatch.setattr(graph_metrics, "BLOCK_VALUES", budget)
            sweeps.clear()
            hist = graph_metrics._distance_histogram(g, sources, seed=sources)
            chosen = np.concatenate(sweeps)
            assert len(np.unique(chosen)) == sources
            if words_per_sweep is not None:
                assert max(map(len, sweeps)) == min(sources, 64 * words_per_sweep)
            assert np.array_equal(hist, oracle_histogram(n, edges, chosen))

    @pytest.mark.parametrize("share", STEP_SHARES)
    @pytest.mark.parametrize("budget", [1, 40])  # one in-row a block, or a few
    def test_bottom_up_blocks_match_all_pairs_oracle(self, rng, monkeypatch, share, budget):
        monkeypatch.setattr(graph_metrics, "TOP_DOWN_SHARE", share)
        monkeypatch.setattr(graph_metrics, "BOTTOM_UP_VALUES", budget)
        for trial in range(8):
            n = int(rng.integers(20, 200))  # up to four words a node
            edges = random_digraph(rng, n, int(rng.integers(n, 6 * n)))
            _, _, pooled = all_pairs_stats(n, [tuple(e) for e in edges])
            hist = graph_metrics._distance_histogram(graph(edges, n=n), n, 0)
            assert np.array_equal(hist, np.bincount(pooled, minlength=n))
        # a graph without arcs has no in-rows to block
        assert not graph_metrics._distance_histogram(graph([], n=5), 5, 0).any()

    def test_hub_star_flips_the_step_direction(self):
        # chain -> hub -> k leaves -> collector -> chain, swept from the first
        # node: chain levels (one arc) run top-down, the hub and leaf levels
        # (k arcs each) bottom-up, the collector and the last chain top-down
        k, chain = 200, 20
        hub, collector = chain, chain + k + 1
        leaves = range(hub + 1, collector)
        edges = [(i, i + 1) for i in range(chain)] + [(hub, leaf) for leaf in leaves]
        edges += [(leaf, collector) for leaf in leaves]
        edges += [(collector + i, collector + i + 1) for i in range(chain)]
        n = collector + chain + 1
        g = graph(edges, n=n)
        assert 1 < graph_metrics.TOP_DOWN_SHARE * (n + g.arc_count) < k
        hist = np.zeros(n, dtype=np.int64)
        graph_metrics._bfs_sweep(g.out_csr(), g.in_csr(), np.array([0]), hist)
        hist[0] = 0
        assert np.array_equal(hist, oracle_histogram(n, edges, [0]))

    def test_sampling_is_deterministic_and_subset_consistent(self, rng):
        g = graph(random_digraph(rng, 150, 900), n=150)
        a = avg_shortest_path(g, sources=20, seed=7)
        b = avg_shortest_path(g, sources=20, seed=7)
        assert a == b
        full = avg_shortest_path(g, sources=150)
        assert full == avg_shortest_path(g, sources=10_000)  # sources >= n: exhaustive

    def test_long_directed_path_exhaustive(self):
        # distance d occurs n - d times: the quantile-1 diameter is n - 1, the mean (n + 1) / 3
        n = 3000
        g = graph([(i, i + 1) for i in range(n - 1)], n=n)
        assert effective_diameter(g, 1.0, sources=n) == n - 1
        assert avg_shortest_path(g, sources=n) == (n + 1) / 3  # exact integer sums

    def test_metrics_traverse_once(self, tmp_path, sweeps):
        from knowgrow.cli import main

        edges = tmp_path / "e.tsv"
        edges.write_text("".join(f"v{i}\tv{(i * 7 + 3) % 40}\n" for i in range(40)))
        assert main(["metrics", "--edges", str(edges), "--sources", "16", "--quiet"]) == 0
        assert list(map(len, sweeps)) == [16]  # one sweep of 16 sources, shared by both metrics


def assert_matches_oracle(n, edges):
    expected = np.mean(local_clustering(n, [tuple(e) for e in np.asarray(edges).tolist()]))
    assert clustering_coefficient(graph(edges, n=n)) == pytest.approx(expected, rel=1e-12)


class TestClustering:
    def test_triangle(self):
        assert clustering_coefficient(CYCLE3) == pytest.approx(1.0)

    def test_star(self):
        assert clustering_coefficient(STAR) == pytest.approx(0.0)

    def test_hubs_sharing_more_than_127_neighbours(self):
        # two adjacent hubs with k shared leaves: leaves score 1, hubs 2 / (k + 1)
        k = 200
        g = graph([(0, 1)] + [(h, leaf) for h in (0, 1) for leaf in range(2, k + 2)], n=k + 2)
        assert clustering_coefficient(g) == pytest.approx((k + 4 / (k + 1)) / (k + 2), rel=1e-12)

    def test_matches_local_clustering_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 80))
            edges = random_digraph(rng, n, int(rng.integers(n, 8 * n)))
            assert_matches_oracle(n, edges)

    def test_hub_joined_to_clique(self):
        # a star of 30 leaves whose centre also belongs to a 12-clique: the
        # centre ranks last, the leaves first
        clique = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        assert_matches_oracle(42, clique + [(0, leaf) for leaf in range(12, 42)])

    def test_small_ba_graph(self):
        from knowgrow import ba

        g = ba.generate(ba.BAParams(n=300, m=3, seed=4))
        assert_matches_oracle(g.n, np.column_stack([g.src, g.dst]))

    @pytest.mark.parametrize("n, half", [(30, 1), (30, 3), (40, 5)])
    def test_equal_degrees_rank_by_id(self, n, half):
        # circulant graphs, every degree 2 * half, alone and beside ten
        # disjoint triangles: the orientation falls back on the id tie-break
        ring = [(i, (i + d) % n) for i in range(n) for d in range(1, half + 1)]
        triangles = [(v + a, v + b) for v in range(n, n + 30, 3) for a, b in ((0, 1), (0, 2), (1, 2))]
        assert_matches_oracle(n, ring)
        assert_matches_oracle(n + 30, ring + triangles)

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            clustering_coefficient(graph([(0, 1)], n=2))

    @pytest.mark.parametrize("block", [1, 7, graph_metrics.WEDGE_VALUES])
    def test_equals_the_sparse_product_count(self, rng, monkeypatch, block):
        # the same per-node triangle counts give the same mean bit for bit,
        # with every block boundary crossed at blocks of 1 and 7 2-paths
        from knowgrow import ba

        monkeypatch.setattr(graph_metrics, "WEDGE_VALUES", block)
        cases = [ba.generate(ba.BAParams(n=300, m=3, seed=4)), STAR,
                 graph(np.empty((0, 2), int), n=5)]
        for _ in range(20):
            n = int(rng.integers(3, 80))
            cases.append(graph(random_digraph(rng, n, int(rng.integers(n, 8 * n))), n=n))
        k = 200
        cases.append(graph([(0, 1)] + [(h, leaf) for h in (0, 1) for leaf in range(2, k + 2)]))
        for n, half in [(30, 1), (30, 3), (40, 5)]:
            ring = [(i, (i + d) % n) for i in range(n) for d in range(1, half + 1)]
            triangles = [(v + a, v + b) for v in range(n, n + 30, 3)
                         for a, b in ((0, 1), (0, 2), (1, 2))]
            cases += [graph(ring, n=n), graph(ring + triangles, n=n + 30)]
        for g in cases:
            assert clustering_coefficient(g) == spgemm_clustering(g)

    def test_ba_graph_near_reference(self):
        from knowgrow import ba

        g = ba.generate(ba.BAParams(n=10_000, m=3, seed=11))
        ref = math.log(10_000) ** 2 / 10_000
        c = clustering_coefficient(g)
        assert ref / 5 <= c <= ref * 5


class TestSymmetricRecord:
    """A graph built from mirrored arcs reuses its out-adjacency, with the same results."""

    @pytest.mark.parametrize("share", STEP_SHARES)
    def test_recorded_and_unrecorded_graphs_agree(self, rng, monkeypatch, share):
        from knowgrow import ba

        monkeypatch.setattr(graph_metrics, "TOP_DOWN_SHARE", share)
        made = [ba.generate(ba.BAParams(n=300, m=3, seed=4))]
        for _ in range(6):
            n = int(rng.integers(3, 150))
            made.append(SnapshotGraph.from_edges(random_digraph(rng, n, 3 * n), n=n, mirror=True))
        for g in made:
            arcs = np.column_stack([g.src, g.dst])
            plain = SnapshotGraph.from_edges(arcs, n=g.n)
            assert g.symmetric and not plain.symmetric
            for x, y in zip(g.undirected_csr(), plain.undirected_csr()):
                assert np.array_equal(x, y)
            for sources, seed in ((g.n, 0), (5, 3)):
                assert np.array_equal(graph_metrics._distance_histogram(g, sources, seed),
                                      graph_metrics._distance_histogram(plain, sources, seed))
            assert clustering_coefficient(g) == clustering_coefficient(plain)

    def test_mirror_counts_each_arc_both_ways(self):
        g = SnapshotGraph.from_edges([(0, 1), (1, 0), (2, 2), (1, 2)], n=3, mirror=True)
        assert list(zip(g.src.tolist(), g.dst.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert (g.self_loop_count, g.duplicate_count, g.symmetric) == (2, 2, True)

    @pytest.mark.parametrize("share", STEP_SHARES)
    def test_a_directed_edge_list_is_not_symmetric(self, tmp_path, monkeypatch, share):
        from knowgrow.dataio import load_edge_list

        # a one-way triangle plus a tail: out-arcs are not in-arcs here
        monkeypatch.setattr(graph_metrics, "TOP_DOWN_SHARE", share)
        path = tmp_path / "e.tsv"
        path.write_text("a\tb\nb\tc\na\tc\nc\td\n")
        g = load_edge_list(path)[1]
        assert not g.symmetric
        assert len(g.undirected_csr()[1]) > g.arc_count
        edges = list(zip(g.src.tolist(), g.dst.tolist()))
        assert np.array_equal(graph_metrics._distance_histogram(g, g.n, 0),
                              oracle_histogram(g.n, edges, range(g.n)))
        assert clustering_coefficient(g) == pytest.approx(
            np.mean(local_clustering(g.n, edges)), rel=1e-12)
        assert load_edge_list(path, undirected=True)[1].symmetric


class TestRelabelingInvariance:
    @given(st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=20, deadline=None)
    def test_metrics_invariant_under_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        edges = random_digraph(rng, n, int(rng.integers(n, 5 * n)))
        perm = rng.permutation(n)
        g1 = graph(edges, n=n)
        g2 = graph(np.column_stack([perm[edges[:, 0]], perm[edges[:, 1]]]), n=n)
        assert density(g1) == pytest.approx(density(g2))
        assert mean_degree(g1) == pytest.approx(mean_degree(g2))
        for direction in ("in", "out", "total"):
            assert degree_entropy(g1, direction) == pytest.approx(degree_entropy(g2, direction))
        assert effective_diameter(g1, 1.0, sources=n) == effective_diameter(g2, 1.0, sources=n)
        assert avg_shortest_path(g1, sources=n) == pytest.approx(avg_shortest_path(g2, sources=n))
        if n >= 3:
            assert clustering_coefficient(g1) == pytest.approx(clustering_coefficient(g2))


class TestPowerlawFit:
    def test_recovers_cubic_law_exponent(self):
        samples = sample_discrete_powerlaw(3.0, kmin=5, size=100_000, seed=31)
        res = powerlaw_fit(samples, kmin=5)
        assert res.exponent == pytest.approx(3.0, abs=0.1)

    def test_auto_kmin_on_shifted_tail(self):
        # clean k^-3 tail above 5, contaminated below: auto kmin should move up
        tail = sample_discrete_powerlaw(3.0, kmin=5, size=50_000, seed=32)
        head = np.full(20_000, 2)
        res = powerlaw_fit(np.concatenate([head, tail]))
        assert res.kmin >= 3
        assert res.exponent == pytest.approx(3.0, abs=0.15)

    def test_ba_degrees_golden(self):
        # recorded before the KS scan took its tails as slices of the sorted sample
        from knowgrow import ba

        degrees = ba.generate(ba.BAParams(20000, 3, 0)).degrees("out")
        assert powerlaw_fit(degrees) == PowerlawFit(
            2.866012712002483, 9, 0.00514040059899587, 2697, False
        )
        fixed = powerlaw_fit(degrees, kmin=5)
        assert (fixed.exponent, fixed.kmin, fixed.n_tail) == (2.757275966259711, 5, 7975)

    def test_degenerate_tail_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_fit(np.full(1000, 7), kmin=None)
        with pytest.raises(ValueError):
            powerlaw_fit(np.full(1000, 7), kmin=7)

    def test_insufficient_tail_rejected(self):
        with pytest.raises(ValueError, match="fewer than"):
            powerlaw_fit(np.arange(1, 40), kmin=1)

    @pytest.mark.parametrize("kmin", [0, -3])
    def test_kmin_below_one_rejected(self, kmin):
        # degrees start at 1: a smaller kmin would be clipped, not fitted
        samples = sample_discrete_powerlaw(3.0, kmin=1, size=1000, seed=7)
        with pytest.raises(ValueError, match="kmin must be >= 1"):
            powerlaw_fit(samples, kmin=kmin)

    def test_ccdf_is_what_ks_measures(self):
        samples = sample_discrete_powerlaw(2.5, kmin=2, size=5000, seed=9)
        res = powerlaw_fit(samples)
        tail = np.sort(samples[samples >= res.kmin])
        ks, emp, fitted = powerlaw_ccdf(tail, res.kmin, res.exponent)
        np.testing.assert_array_equal(ks, np.unique(tail))
        assert emp[0] == 1.0 and fitted[0] == 1.0
        assert np.all(np.diff(emp) < 0) and np.all(np.diff(fitted) < 0)
        assert float(np.abs(fitted - emp).max()) == res.ks_distance


class TestLognormalFit:
    def test_constant_samples(self):
        res = lognormal_fit(np.array([math.e, math.e, math.e]))
        assert res.mu == pytest.approx(1.0)
        assert res.sigma == pytest.approx(0.0)

    def test_recovers_seven_one(self):
        rng = np.random.default_rng(8)
        samples = rng.lognormal(mean=7.0, sigma=1.0, size=100_000)
        res = lognormal_fit(samples)
        assert res.mu == pytest.approx(7.0, rel=0.02)
        assert res.sigma == pytest.approx(1.0, rel=0.05)

    def test_uniform_scores_worse_than_true_lognormal(self):
        rng = np.random.default_rng(9)
        n = 20_000
        ln_ks = lognormal_fit(rng.lognormal(3.0, 0.8, size=n)).ks_distance
        uni_ks = lognormal_fit(rng.uniform(1.0, 100.0, size=n)).ks_distance
        assert uni_ks > ln_ks

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            lognormal_fit(np.array([1.0, -2.0, 3.0]))
        with pytest.raises(ValueError):
            lognormal_fit(np.array([1.0, 2.0]))
