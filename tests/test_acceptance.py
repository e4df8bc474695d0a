"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from knowgrow import ba
from knowgrow.disruption import CitationGraph, d_index_all, intersect_analysis, rank
from knowgrow.fitting import fit_points, select_points
from knowgrow.graph_metrics import (
    SnapshotGraph,
    avg_shortest_path,
    clustering_coefficient,
    degree_entropy,
    density,
    effective_diameter,
    lognormal_fit,
    mean_degree,
    powerlaw_fit,
)
from knowgrow.growth import QUASI_LINEAR_FAMILIES, STANDARD_FAMILIES, GrowthModel, log_integral, model_catalog
from knowgrow.taxonomy import count_members, count_members_by_level, detect_cycles

from conftest import category_graph, random_digraph
from _oracles import all_pairs_stats, closure_member_counts, naive_disruption, simpson_li


def criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}  {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. logarithmic integral vs fixed-step Simpson oracle


def test_criterion_1_log_integral_oracle():
    start = time.perf_counter()
    worst = 0.0
    for x in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        expected = simpson_li(x)
        got = log_integral(x)
        worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - start
    criterion(
        1,
        "log_integral matches the Simpson oracle to 1e-9 in under 1 s",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


# --------------------------------------------------------------------------
# 2. category-count predictions from the closed form


def test_criterion_2_category_predictions():
    model = model_catalog()["wiki_categories"]
    expected = {
        "2023-01": 2_334_875,
        "2024-01": 2_488_645,
        "2025-01": 2_643_672,
        "2026-01": 2_799_895,
    }
    assert model.index_of("2023-01") == 205
    worst = max(
        abs(model.evaluate(model.index_of(month)) - value) / value
        for month, value in expected.items()
    )
    criterion(
        2,
        "2000*(t+12)*ln(t+12) reproduces the four category predictions to 0.1%",
        worst <= 1e-3,
        f"worst rel err {worst:.2e}",
    )


# --------------------------------------------------------------------------
# 3. article forecast from the nine fitted monthly totals


ARTICLE_POINTS = {  # month -> fitted article count (2021-06 has no snapshot)
    "2021-05": 6_304_698,
    "2021-07": 6_347_547,
    "2021-08": 6_368_943,
    "2021-09": 6_390_319,
    "2021-10": 6_411_676,
    "2021-11": 6_433_014,
    "2021-12": 6_454_334,
    "2022-01": 6_475_635,
    "2022-02": 6_496_917,
}

ARTICLE_PREDICTIONS = {
    "2023-01": 6_729_834,
    "2024-01": 6_981_559,
    "2025-01": 7_230_982,
    "2026-01": 7_478_255,
}


def test_criterion_3_article_forecast():
    from knowgrow.months import month_index

    origin = "2021-01"
    t = np.array([month_index(origin, m) for m in ARTICLE_POINTS], dtype=float)
    y = np.array(list(ARTICLE_POINTS.values()), dtype=float)
    ranked = select_points(t, y, QUASI_LINEAR_FAMILIES, t_origin=origin)
    best = ranked[0]
    worst = max(
        abs(best.model.evaluate(float(month_index(origin, m))) - v) / v
        for m, v in ARTICLE_PREDICTIONS.items()
    )
    criterion(
        3,
        "quasi-linear fit of the nine monthly totals hits all four forecasts to 0.5%",
        worst <= 5e-3,
        f"selected {best.model.family}, worst rel err {worst:.2e}",
    )


# --------------------------------------------------------------------------
# 4. per-family fit round-trip


ROUND_TRIP_PARAMS = {
    "constant": (1_350_000.0,),
    "linear": (30.0, 3800.0),
    "polynomial3": (2.0, -3.0, 40.0, 200_000.0),
    "logarithmic": (2000.0, 3.0, 100.0),
    "reciprocal_log": (140000.0, 30.0, 500.0),
    "t_over_ln_t": (1000.0, 20.0, 5000.0),
    "log_integral": (140000.0, 100.0, 1_350_000.0),
    "t_ln_t": (2467.0, -2467.0, 147079.0),
    "shifted_t_ln_t": (2000.0, 12.0, 50000.0),
    "exponential": (50.0, 0.04, 1000.0),
    "sub_exponential": (0.05, 5.0, 2.0),
}


def test_criterion_4_fit_round_trip():
    assert set(ROUND_TRIP_PARAMS) == set(STANDARD_FAMILIES)
    t = np.arange(1, 121, dtype=float)
    start = time.perf_counter()
    worst_param = 0.0
    worst_clean_mape = 0.0
    worst_noisy_mape = 0.0
    for family, params in ROUND_TRIP_PARAMS.items():
        truth = GrowthModel(family, params)
        y = np.asarray(truth.evaluate(t), dtype=float)
        clean = fit_points(t, y, family)
        rel = np.abs(
            (np.asarray(clean.model.params) - np.asarray(params)) / np.asarray(params)
        ).max()
        worst_param = max(worst_param, rel)
        worst_clean_mape = max(worst_clean_mape, clean.mape)
        rng = np.random.default_rng(20_240_000 + hash(family) % 1000)
        noisy = fit_points(t, y * (1.0 + 0.001 * rng.standard_normal(t.size)), family)
        worst_noisy_mape = max(worst_noisy_mape, noisy.mape)
    elapsed = time.perf_counter() - start
    criterion(
        4,
        "all 11 families: params to 1%, clean mape <= 1e-6, noisy mape <= 0.5%, < 30 s",
        worst_param <= 0.01
        and worst_clean_mape <= 1e-6
        and worst_noisy_mape <= 5e-3
        and elapsed < 30.0,
        f"params {worst_param:.1e}, clean {worst_clean_mape:.1e}, "
        f"noisy {worst_noisy_mape:.1e}, {elapsed:.1f} s",
    )


# --------------------------------------------------------------------------
# 5. preferential-attachment baseline vs the closed-form column


def test_criterion_5_ba_baseline():
    params = ba.BAParams(n=100_000, m=3, seed=20240601)
    start = time.perf_counter()
    g = ba.generate(params)
    exponent = powerlaw_fit(g.degrees("out")).exponent
    diameter = effective_diameter(g, quantile=0.9, sources=64, seed=params.seed)
    clustering = clustering_coefficient(g)
    elapsed = time.perf_counter() - start

    n = params.n
    diameter_ref = math.log(n) / math.log(math.log(n))
    clustering_ref = math.log(n) ** 2 / n
    edge_ok = g.arc_count == 2 * params.edge_count
    criterion(
        5,
        "BA(1e5, 3): exponent 3+-0.3, diameter +-2 of ln N/ln ln N, "
        "clustering within 5x of (ln N)^2/N, exact edge count, < 60 s",
        abs(exponent - 3.0) <= 0.3
        and abs(diameter - diameter_ref) <= 2.0
        and clustering_ref / 5 <= clustering <= clustering_ref * 5
        and edge_ok
        and elapsed < 60.0,
        f"exponent {exponent:.3f}, diameter {diameter} vs {diameter_ref:.2f}, "
        f"clustering {clustering:.2e} vs {clustering_ref:.2e}, {elapsed:.1f} s",
    )


# --------------------------------------------------------------------------
# 6. disruption scores vs brute-force enumeration


def _random_citation_dag(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 201))
    papers = [(f"p{i:04d}", 1950 + (i % 60)) for i in range(n)]
    wanted = int(rng.integers(n, 2001))
    seen = set()
    edges = []
    for _ in range(wanted):
        i = int(rng.integers(1, n))
        j = int(rng.integers(0, i))
        if (i, j) not in seen:
            seen.add((i, j))
            edges.append((f"p{i:04d}", f"p{j:04d}"))
    return papers, edges


def test_criterion_6_disruption_oracle():
    mismatches = 0
    checked = 0
    for seed in range(50):
        papers, edges = _random_citation_dag(seed)
        g = CitationGraph.build(papers, edges)
        counts, d = d_index_all(g)
        ids = [p for p, _ in papers]
        for i, pid in enumerate(g.ids):
            expected = naive_disruption(ids, edges, pid)
            checked += 1
            if (*counts[i].tolist(), d[i]) != expected:
                mismatches += 1

    g_max = CitationGraph.build(
        [("f", 1990), ("c1", 2000), ("c2", 2000), ("c3", 2000)],
        [("c1", "f"), ("c2", "f"), ("c3", "f")],
    )
    g_min = CitationGraph.build(
        [("f", 1990), ("r", 1980), ("c1", 2000), ("c2", 2000), ("c3", 2000)],
        [("f", "r")] + [(c, x) for c in ("c1", "c2", "c3") for x in ("f", "r")],
    )
    extremes = (d_index_all(g_max)[1][g_max.ids.index("f")] == 1.0
                and d_index_all(g_min)[1][g_min.ids.index("f")] == -1.0)
    criterion(
        6,
        "d_index_all equals brute-force enumeration on 50 random DAGs; extremes hit +-1",
        mismatches == 0 and extremes,
        f"{checked} focal papers compared, {mismatches} mismatches",
    )


# --------------------------------------------------------------------------
# 7. distance metrics vs all-pairs BFS, plus exact identities


def test_criterion_7_graph_metric_oracles():
    rng = np.random.default_rng(424242)
    ok = True
    details = []
    for _ in range(20):
        n = int(rng.integers(20, 201))
        edges = random_digraph(rng, n, int(rng.integers(n, 6 * n)))
        g = SnapshotGraph.from_edges(edges, n=n)
        oracle_diam, oracle_avg, _ = all_pairs_stats(n, [tuple(e) for e in edges])
        if effective_diameter(g, quantile=1.0, sources=n) != oracle_diam:
            ok = False
            details.append("diameter mismatch")
        if not math.isclose(avg_shortest_path(g, sources=n), oracle_avg, rel_tol=1e-12):
            ok = False
            details.append("avg distance mismatch")
        if not math.isclose(mean_degree(g), density(g) * (n - 1), rel_tol=1e-12):
            ok = False
            details.append("identity mismatch")
    ring = SnapshotGraph.from_edges([(i, (i + 1) % 12) for i in range(12)], n=12)
    if degree_entropy(ring) != 0.0:
        ok = False
        details.append("regular-graph entropy nonzero")
    criterion(
        7,
        "exhaustive diameter/avg distance equal all-pairs BFS; density and entropy identities hold",
        ok,
        "; ".join(details) if details else "20 graphs, all exact",
    )


# --------------------------------------------------------------------------
# 8. lognormal parameter recovery


def test_criterion_8_lognormal_recovery():
    rng = np.random.default_rng(777)
    samples = rng.lognormal(mean=7.0, sigma=1.0, size=100_000)
    res = lognormal_fit(samples)
    criterion(
        8,
        "lognormal(7, 1) sample of 1e5 recovers mu to 2% and sigma to 5%",
        abs(res.mu - 7.0) / 7.0 <= 0.02 and abs(res.sigma - 1.0) <= 0.05,
        f"mu {res.mu:.4f}, sigma {res.sigma:.4f}",
    )


# --------------------------------------------------------------------------
# 9. ranked-set intersection pipeline on a planted synthetic corpus


def test_criterion_9_intersection_pipeline():
    rng = np.random.default_rng(60_606)
    n = 10_000
    papers = [(f"p{i:05d}", 1950 + int(rng.integers(0, 60))) for i in range(n)]
    hot = set(range(500))  # planted high-citation subset
    edges = []
    seen = set()
    for i in range(1, n):
        refs = rng.integers(0, i, size=5)
        for j in refs:
            j = int(j)
            if rng.random() < 0.7 and i > 500:
                j = int(rng.integers(0, min(i, 500)))  # bias citations into the plant
            if i != j and (i, j) not in seen:
                seen.add((i, j))
                edges.append((f"p{i:05d}", f"p{j:05d}"))
    g = CitationGraph.build(papers, edges)

    ctop = [g.ids[i] for i in rank(g, g.citation_counts())]
    d1200 = {g.ids[i] for i in rank(g, d_index_all(g)[1], k=1200)}
    ids = [p for p, _ in papers]
    w_like = set(rng.choice(sorted(hot), size=300, replace=False).tolist())
    w1200 = {f"p{i:05d}" for i in w_like} | set(
        rng.choice(ids, size=900, replace=False).tolist()
    )

    rows = intersect_analysis(w1200, d1200, ctop, [5.0, 10.0, 20.0])

    ok = True
    details = []
    for row in rows:
        p = row["percentile"]
        size = int(len(ctop) * p / 100.0)
        prefix = set(ctop[:size])
        ia, ib = len(w1200 & prefix), len(d1200 & prefix)
        if (
            row["prefix_size"] != size
            or row["a_count"] != ia
            or row["b_count"] != ib
            or row["a_frac_of_set"] != ia / len(w1200)
            or row["b_frac_of_set"] != ib / len(d1200)
            or row["a_frac_of_prefix"] != ia / size
            or row["b_frac_of_prefix"] != ib / size
        ):
            ok = False
            details.append(f"mismatch at {p}%")
    planted_visible = rows[0]["a_count"] > 0
    criterion(
        9,
        "intersect_analysis equals brute-force set arithmetic at percentiles 5/10/20",
        ok and planted_visible,
        "; ".join(details)
        if details
        else f"{len(edges)} citations, overlaps "
        + ", ".join(f"{r['percentile']:g}%: a={r['a_count']} b={r['b_count']}" for r in rows),
    )


# --------------------------------------------------------------------------
# 10. taxonomy: cycles, depth-limited counts, termination


def test_criterion_10_taxonomy():
    mutual = category_graph(
        [("Physics", "Mathematics", "category"), ("Mathematics", "Physics", "category")]
    )
    cycle_ok = detect_cycles(mutual) == [["Physics", "Mathematics"]]

    rng = np.random.default_rng(31_337)
    n_cats, n_articles = 300, 700  # fixture stays under 1e3 nodes
    edges = []
    for i in range(1, n_cats):
        for p in rng.choice(i, size=min(i, int(rng.integers(1, 4))), replace=False):
            edges.append((f"c{i}", f"c{p}", "category"))
    for _ in range(40):  # close some loops
        a, b = rng.integers(0, n_cats, size=2)
        if a != b:
            edges.append((f"c{a}", f"c{b}", "category"))
    for j in range(n_articles):
        for p in rng.choice(n_cats, size=int(rng.integers(1, 3)), replace=False):
            edges.append((f"a{j}", f"c{p}", "article"))
    g = category_graph(edges)
    got = count_members(g, ["c0", "c1"], 3)
    articles, cats = closure_member_counts(edges, ["c0", "c1"], 3)
    counts_ok = got == {"articles": articles, "categories": cats}

    start = time.perf_counter()
    count_members_by_level(g, ["c0"], 10**9)
    elapsed = time.perf_counter() - start
    criterion(
        10,
        "cycle fixture detected; depth-3 counts match transitive closure; "
        "cyclic traversal terminates",
        cycle_ok and counts_ok and elapsed < 5.0,
        f"depth-3 count {got}, traversal {elapsed:.3f} s",
    )
