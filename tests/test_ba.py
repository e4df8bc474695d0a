"""Preferential-attachment generator and the closed-form comparison column."""
import hashlib

import numpy as np
import pytest
from scipy.special import zeta

from knowgrow import ba
from knowgrow.graph_metrics import powerlaw_fit


class TestGenerate:
    def test_edge_count_n5_m1(self):
        g = ba.generate(ba.BAParams(n=5, m=1, seed=0))
        assert g.arc_count // 2 == 4

    def test_edge_count_n100_m2(self):
        params = ba.BAParams(n=100, m=2, seed=3)
        assert params.edge_count == 197
        g = ba.generate(params)
        assert g.arc_count == 2 * 197

    def test_deterministic_per_seed(self):
        p = ba.BAParams(n=500, m=3, seed=77)
        g1, g2 = ba.generate(p), ba.generate(p)
        assert np.array_equal(g1.src, g2.src)
        assert np.array_equal(g1.dst, g2.dst)
        g3 = ba.generate(ba.BAParams(n=500, m=3, seed=78))
        assert not (np.array_equal(g1.src, g3.src) and np.array_equal(g1.dst, g3.dst))

    @pytest.mark.parametrize(
        "n, m, seed, digest",
        [
            (2, 1, 0, "db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8"),
            (5, 1, 0, "95acb044500caaa168d19351a3a473fe1171465d6540110e74c85592d5de0400"),
            (10, 9, 2, "3b9a4d3a36d2fda31e7daefb4f56480187fef4f6db35535f4e9cd6d14f24dfae"),
            (2000, 1, 5, "4d8b8415427949de174e659080df44ed6a1327d515c00d47c1f64a1ad8a1e73f"),
            (1000, 7, 3, "e45ac4f640dfcee2d0aebaa3884bed3ecdf52f171aa738aedc2b053f1200da63"),
            (20000, 3, 0, "f01d1ae2a2554b1417c96aa026caa8d8f2939c7f7d76d37ede1038d48739c5f0"),
        ],
    )
    def test_golden_stream(self, n, m, seed, digest):
        # pins the seeded arc order, so a rewrite of the sampler keeps old baselines
        g = ba.generate(ba.BAParams(n=n, m=m, seed=seed))
        # arcs at the index dtype from_edges uses; the digests pin their int64 bytes
        assert g.src.dtype == g.dst.dtype == np.int32
        arcs = g.src.astype(np.int64).tobytes() + g.dst.astype(np.int64).tobytes()
        assert hashlib.sha256(arcs).hexdigest() == digest

    def test_degree_sum_and_min_degree(self):
        p = ba.BAParams(n=2000, m=4, seed=1)
        g = ba.generate(p)
        deg = g.degrees("out")  # undirected degrees (arcs are symmetric)
        assert deg.sum() == 2 * p.edge_count
        assert np.all(deg[p.m :] >= p.m)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ba.BAParams(n=3, m=3)
        with pytest.raises(ValueError):
            ba.BAParams(n=10, m=0)

    def test_large_run_power_law(self, ba_large):
        params, g = ba_large
        res = powerlaw_fit(g.degrees("out"))
        assert res.exponent == pytest.approx(3.0, abs=0.3)

    def test_ccdf_near_reference_tail(self, ba_large):
        params, g = ba_large
        deg = g.degrees("out")
        emp_ccdf_at_m = float(np.mean(deg >= params.m))
        ref_ccdf_at_m = 2.0 * params.m**2 * float(zeta(3.0, params.m))
        assert ref_ccdf_at_m / 3 <= emp_ccdf_at_m <= ref_ccdf_at_m * 3


class TestTheory:
    def test_reference_values(self):
        ref = ba.theory(ba.BAParams(n=100_000, m=3))
        assert ref.effective_diameter == pytest.approx(4.71, abs=0.01)
        ref4 = ba.theory(ba.BAParams(n=10_000, m=3))
        assert ref4.clustering == pytest.approx(8.48e-3, rel=0.01)

    def test_needs_ten_nodes(self):
        with pytest.raises(ValueError):
            ba.theory(ba.BAParams(n=8, m=2))


class TestCompare:
    def test_report_shape(self):
        p = ba.BAParams(n=2000, m=3, seed=9)
        report = ba.compare(ba.generate(p), p, sources=200)
        assert {row["metric"] for row in report["rows"]} == {
            "density",
            "effective_diameter",
            "clustering",
            "powerlaw_exponent",
        }
        for row in report["rows"]:
            assert row["ratio"] == pytest.approx(row["empirical"] / row["reference"])

    def test_large_run_bands(self, ba_large):
        params, g = ba_large
        report = ba.compare(g, params)
        rows = {r["metric"]: r for r in report["rows"]}
        assert 0.9 <= rows["density"]["ratio"] <= 1.1
        assert 0.5 <= rows["effective_diameter"]["ratio"] <= 2.0
        assert report["undirected_edges"] == params.edge_count

    def test_large_run_mean_distance(self, ba_large):
        import math

        from knowgrow.graph_metrics import avg_shortest_path

        params, g = ba_large
        ref = math.log(params.n) / math.log(math.log(params.n))
        mean_dist = avg_shortest_path(g, sources=64, seed=1)
        assert ref / 2 <= mean_dist <= ref * 2
