"""Preferential-attachment generator and the closed-form comparison column."""
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
