"""Fitting engine: recovery, scoring, selection, forecasting, breakpoints."""
import itertools
import json
import math

import numpy as np
import pytest

from _oracles import exhaustive_segment_break, grid_stage_sse, joint_least_squares_sse
from knowgrow.fitting import (
    MIN_SEGMENT,
    SCAN_GRID_SIZE,
    FitError,
    FitResult,
    TimeSeries,
    fit_points,
    forecast,
    segment_break,
    select,
    _nl_bounds,
    _split_scores,
)
from knowgrow.growth import STANDARD_FAMILIES, GrowthModel, family_spec

# one well-scaled parameter set per family; every component is far from 0 so
# relative recovery error is meaningful
ROUND_TRIP_PARAMS = {
    "constant": (1_350_000.0,),
    "linear": (30.0, 3800.0),
    "polynomial3": (2.0, -3.0, 40.0, 200000.0),
    "logarithmic": (2000.0, 3.0, 100.0),
    "reciprocal_log": (140000.0, 30.0, 500.0),
    "t_over_ln_t": (1000.0, 20.0, 5000.0),
    "log_integral": (140000.0, 100.0, 1_350_000.0),
    "t_ln_t": (2467.0, -2467.0, 147079.0),
    "shifted_t_ln_t": (2000.0, 12.0, 50000.0),
    "exponential": (50.0, 0.04, 1000.0),
    "sub_exponential": (0.05, 5.0, 2.0),
}

T120 = np.arange(1, 121, dtype=float)


def synthetic(family: str, noise: float = 0.0, seed: int = 99) -> tuple[np.ndarray, GrowthModel]:
    model = GrowthModel(family, ROUND_TRIP_PARAMS[family])
    y = np.asarray(model.evaluate(T120), dtype=float)
    if noise:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise * rng.standard_normal(y.size))
    return y, model


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries("2001-01", (1.0,))
        with pytest.raises(ValueError):
            TimeSeries("2001-13", (1.0, 2.0))
        with pytest.raises(ValueError):
            TimeSeries("2001-01", (1.0, math.inf))

    def test_month_indexing(self):
        s = TimeSeries("2020-11", (1.0, 2.0, 3.0))
        assert s.month_at(1) == "2020-11"
        assert s.month_at(3) == "2021-01"

    def test_json_round_trip(self):
        s = TimeSeries("2006-01", (1.5, 2.5), label="articles")
        assert TimeSeries.from_json(s.to_json()) == s


class TestFitRecovery:
    def test_linear_exact(self):
        series = TimeSeries("2007-01", tuple(30.0 * np.arange(1, 61) + 3800.0))
        r = fit_points(series.t, series.y, "linear", series.origin)
        assert r.model.params == pytest.approx((30.0, 3800.0), rel=1e-12)
        assert r.mape <= 1e-12
        assert r.model.t_origin == "2007-01"

    def test_log_integral_recovers_cumulative_increment_sums(self):
        # generator oracle: cumulative sum of the 140000/ln(t+100) increment
        inc = 140000.0 / np.log(T120 + 100.0)
        r = fit_points(T120, np.cumsum(inc), "log_integral")
        assert abs(r.model.params[0] - 140000.0) / 140000.0 <= 0.01

    @pytest.mark.parametrize("family", STANDARD_FAMILIES)
    def test_noiseless_round_trip(self, family):
        y, truth = synthetic(family)
        r = fit_points(T120, y, family)
        rel = np.abs(
            (np.asarray(r.model.params) - np.asarray(truth.params)) / np.asarray(truth.params)
        )
        assert rel.max() <= 0.01
        assert r.mape <= 1e-6
        assert r.converged
        assert not r.at_bound

    @pytest.mark.parametrize("family", STANDARD_FAMILIES)
    def test_noisy_round_trip(self, family):
        y, _ = synthetic(family, noise=0.001)
        r = fit_points(T120, y, family)
        assert r.mape <= 0.005

    # nine fitted monthly article totals; 2021-06 has no snapshot, so the
    # calendar indices (2021-01 = 1) are explicit rather than consecutive
    ARTICLE_T = np.array([5.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0])
    ARTICLE_Y = np.array(
        [6304698.0, 6347547.0, 6368943.0, 6390319.0, 6411676.0,
         6433014.0, 6454334.0, 6475635.0, 6496917.0]
    )

    def test_quasi_linear_families_track_article_totals(self):
        from knowgrow.growth import QUASI_LINEAR_FAMILIES

        for family in QUASI_LINEAR_FAMILIES:
            r = fit_points(self.ARTICLE_T, self.ARTICLE_Y, family, t_origin="2021-01")
            assert r.mape <= 0.002

    def test_forecast_article_totals_to_predicted_years(self):
        from knowgrow.growth import QUASI_LINEAR_FAMILIES

        ranked = select(
            self.ARTICLE_T, self.ARTICLE_Y, QUASI_LINEAR_FAMILIES, t_origin="2021-01"
        )
        fc = forecast(ranked[0], "2024-01")
        assert fc.month_at(len(fc)) == "2024-01"
        by_month = {fc.month_at(i + 1): v for i, v in enumerate(fc.values)}
        assert by_month["2023-01"] == pytest.approx(6_729_834, rel=5e-3)
        assert by_month["2024-01"] == pytest.approx(6_981_559, rel=5e-3)

    def test_too_short(self):
        with pytest.raises(FitError, match="too short"):
            fit_points(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]), "logarithmic")

    def test_all_zero_series(self):
        with pytest.raises(FitError, match="all-zero"):
            fit_points(T120, np.zeros_like(T120), "linear")

    def test_log_space_family_needs_positive_values(self):
        with pytest.raises(FitError, match="log space"):
            fit_points(T120, T120 - 10.0, "sub_exponential")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "family", [f for f in STANDARD_FAMILIES if family_spec(f).nonlinear_index is not None]
    )
    def test_profile_optimum_is_the_joint_least_squares_fit(self, family, seed):
        # moving every parameter at once from the returned fit finds no lower SSE
        y, _ = synthetic(family, noise=0.001, seed=seed)
        r = fit_points(T120, y, family)
        spec = family_spec(family)
        before, after = joint_least_squares_sse(
            spec, T120, y, r.model.params, _nl_bounds(spec, T120)
        )
        assert r.converged
        assert before - after <= 1e-9 * before


class TestSelect:
    def test_nested_model_tie_break(self):
        t = np.arange(1, 61, dtype=float)
        ranked = select(t, 30.0 * t + 3800.0, ["polynomial3", "linear"])
        assert ranked[0].model.family == "linear"

    def test_t_ln_t_data(self):
        t = np.arange(1, 61, dtype=float)
        ranked = select(t, 5.0 * t * np.log(t) + 100.0, ["linear", "t_ln_t"])
        assert ranked[0].model.family == "t_ln_t"

    def test_exponential_data(self):
        t = np.arange(1, 61, dtype=float)
        y = 3.0 * np.exp(0.08 * t) + 50.0
        ranked = select(t, y, ["t_ln_t", "exponential", "sub_exponential"])
        assert ranked[0].model.family == "exponential"

    def test_order_invariance(self):
        t = np.arange(1, 41, dtype=float)
        y = 2.0 * t * np.log(t) + 3.0 * t + 7.0
        fams = ["linear", "t_ln_t", "logarithmic", "constant"]
        baseline = [r.model.family for r in select(t, y, fams)]
        for perm in itertools.permutations(fams):
            got = [r.model.family for r in select(t, y, list(perm))]
            assert got == baseline

    def test_empty_family_list(self):
        with pytest.raises(FitError):
            select(T120, T120, [])

    def test_propagates_fit_errors(self):
        with pytest.raises(FitError, match="log space"):
            select(T120, T120 - 10.0, ["linear", "sub_exponential"])


class TestForecast:
    def test_constant_model(self):
        s = TimeSeries("2020-01", (42.0,) * 24)
        r = fit_points(s.t, s.y, "constant", s.origin)
        fc = forecast(r, "2022-06")
        assert fc.origin == "2022-01"
        assert len(fc) == 6
        assert all(v == pytest.approx(42.0) for v in fc.values)

    def test_continuous_at_boundary(self):
        y, _ = synthetic("t_over_ln_t")
        s = TimeSeries("2010-01", tuple(y))
        r = fit_points(s.t, s.y, "t_over_ln_t", s.origin)
        fc = forecast(r, "2020-06")
        expected_first = r.model.evaluate(121.0)
        assert fc.values[0] == pytest.approx(expected_first, rel=1e-12)
        step_in = y[-1] - y[-2]
        step_out = fc.values[0] - y[-1]
        assert step_out == pytest.approx(step_in, rel=0.05)

    def test_until_must_extend(self):
        s = TimeSeries("2020-01", tuple(float(v) for v in range(10, 40)))
        r = fit_points(s.t, s.y, "linear", s.origin)
        with pytest.raises(ValueError, match="extend"):
            forecast(r, "2021-01")  # inside the 30-month span

    def test_requires_origin(self):
        r = fit_points(T120, 2.0 * T120 + 1.0, "linear")
        with pytest.raises(ValueError, match="t_origin"):
            forecast(r, "2030-01")


def _two_regimes(n, brk, early, late, noise=0.0, seed=5):
    """``early`` through month ``brk``, then ``late`` shifted to join it there."""
    t = np.arange(1, n + 1, dtype=float)
    e = np.asarray(GrowthModel(*early).evaluate(t))
    l = np.asarray(GrowthModel(*late).evaluate(t))
    y = np.where(t <= brk, e, l - l[brk - 1] + e[brk - 1])
    if noise:
        y = y * (1.0 + noise * np.random.default_rng(seed).standard_normal(n))
    return y


def _exp_then_sub_exp(n=96, brk=36, noise=0.005, seed=3):
    t = np.arange(1, n + 1, dtype=float)
    e = 50.0 * np.exp(0.05 * t) + 1000.0
    late = np.exp(0.3 * t / np.log(t + 5.0))
    y = np.where(t <= brk, e, late * e[brk - 1] / late[brk - 1])
    return y * (1.0 + noise * np.random.default_rng(seed).standard_normal(n))


T100 = np.arange(1, 101, dtype=float)
T60 = np.arange(1, 61, dtype=float)
T600 = np.arange(1, 601, dtype=float)
# (values, early family, late family)
SEGMENT_FIXTURES = {
    "cubic-then-linear": (
        np.where(T100 <= 40, T100**3, 64000.0 + 4800.0 * (T100 - 40)), "polynomial3", "linear"
    ),
    "pure-linear": (5.0 * T100 + 20.0, "linear", "linear"),
    "step": (np.where(T100 <= 50, 100.0, 500.0), "constant", "constant"),
    # the series of tests/test_cli.py::TestSegment
    "cli-cubic-then-linear": (
        np.where(T60 <= 24, T60**3, 13824.0 + 1728.0 * (T60 - 24)), "polynomial3", "linear"
    ),
    # the CLI's default pair, noiseless: slope 2700 at the break, Li(t + 10) after
    "cubic-then-log-integral": (
        _two_regimes(90, 30, ("polynomial3", (1, 0, 0, 0)),
                     ("log_integral", (2700.0 * math.log(40.0), 10.0, 0.0))),
        "polynomial3", "log_integral",
    ),
    "noisy-cubic-then-log-integral": (
        _two_regimes(120, 40, ("polynomial3", (0.002, 0.5, 50.0, 1000.0)),
                     ("log_integral", (1500.0, 10.0, 0.0)), noise=0.005),
        "polynomial3", "log_integral",
    ),
    "noisy-exponential-then-sub-exponential": (
        _exp_then_sub_exp(), "exponential", "sub_exponential"
    ),
    # a cubic burst in the last ten of 600 months: on the shortest late
    # segments fit_points' raw t**3 basis loses rank, so their refit lands
    # far above the screen's score
    "noisy-linear-then-cubic-tail": (
        (1000.0 + 40.0 * T600 + 100.0 * np.maximum(T600 - 590.0, 0.0) ** 3)
        * (1.0 + 0.001 * np.random.default_rng(1).standard_normal(600)),
        "linear", "polynomial3",
    ),
    "noisy-linear-then-t-ln-t": (
        _two_regimes(96, 40, ("linear", (30.0, 3800.0)), ("t_ln_t", (40.0, 0.0, 0.0)),
                     noise=0.005),
        "linear", "t_ln_t",
    ),
}


def _segment(name: str):
    y, early, late = SEGMENT_FIXTURES[name]
    return segment_break(TimeSeries("2001-01", tuple(y)), early, late)


class TestSegmentBreak:
    def test_cubic_then_linear(self):
        split = _segment("cubic-then-linear")
        assert abs(split.break_index - 40) <= 2
        assert not split.low_contrast

    def test_pure_linear_is_low_contrast(self):
        split = _segment("pure-linear")
        assert split.low_contrast
        early, late = split.early_fit.model.params[0], split.late_fit.model.params[0]
        assert abs(early - late) / abs(late) <= 0.05

    def test_step_discontinuity(self):
        split = _segment("step")
        assert split.break_index == 50
        assert split.break_month == "2005-02"

    def test_noiseless_cubic_then_log_integral(self):
        split = _segment("cubic-then-log-integral")
        assert split.break_index == 30
        assert split.late_fit.model.params[1] == pytest.approx(10.0, rel=1e-4)

    def test_too_short(self):
        with pytest.raises(FitError):
            segment_break(TimeSeries("2001-01", tuple(range(10))), "linear", "linear")

    @pytest.mark.parametrize("name", list(SEGMENT_FIXTURES))
    def test_matches_exhaustive_scan(self, name):
        y, early, late = SEGMENT_FIXTURES[name]
        series = TimeSeries("2001-01", tuple(y))
        got = segment_break(series, early, late).to_json()
        assert got == exhaustive_segment_break(series, early, late).to_json()

    def test_zero_tail_is_rejected(self):
        # the shortest late segment is all zeros, which fit_points rejects
        y = np.concatenate([np.arange(1.0, 31.0), np.zeros(6)])
        with pytest.raises(FitError, match="all-zero"):
            segment_break(TimeSeries("2001-01", tuple(y)), "linear", "linear")

    def test_log_space_needs_positive_values(self):
        y = np.concatenate([np.arange(1.0, 31.0), [-1.0], np.arange(32.0, 60.0)])
        with pytest.raises(FitError, match="log space"):
            segment_break(TimeSeries("2001-01", tuple(y)), "linear", "sub_exponential")


# a 40-month cubic-then-Li series, with 1 % noise and without
_SCREEN_Y = _two_regimes(40, 14, ("polynomial3", (0.002, 0.5, 50.0, 1000.0)),
                         ("log_integral", (1500.0, 10.0, 0.0)))
_SCREEN_SERIES = {
    "noisy": _SCREEN_Y * (1.0 + 0.01 * np.random.default_rng(11).standard_normal(40)),
    "noiseless": _SCREEN_Y,
}


# sides the screen scores by their refined per-split fit, not the grid stage
_REFINED_SIDES = {
    ("exponential", False), ("exponential", True),
    ("sub_exponential", False), ("sub_exponential", True),
    ("t_ln_t", True),
    ("polynomial7", False), ("polynomial7", True),
}


@pytest.mark.parametrize("data", list(_SCREEN_SERIES))
@pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
@pytest.mark.parametrize("family", STANDARD_FAMILIES + ("polynomial5", "polynomial7"))
def test_screen_matches_grid_stage(family, late, data):
    """Each side's screened score is the per-split grid-stage SSE, or the
    refined SSE where the screen scores that side by its refit."""
    spec, y = family_spec(family), _SCREEN_SERIES[data]
    t = np.arange(1, len(y) + 1, dtype=float)
    shortest = max(MIN_SEGMENT, spec.arity + 2)
    splits = np.arange(shortest, len(y) - shortest + 1)
    if (family, late) in _REFINED_SIDES:
        def score(ts, ys):
            return fit_points(ts, ys, family, _grid_size=SCAN_GRID_SIZE).sse
    else:
        def score(ts, ys):
            return grid_stage_sse(spec, ts, ys)
    direct = [score(t[b:], y[b:]) if late else score(t[:b], y[:b]) for b in splits]
    # near-zero SSEs of the noiseless series are roundoff; the floor absorbs them
    scores, refined = _split_scores(spec, t, y, splits, late)
    assert refined == ((family, late) in _REFINED_SIDES)
    np.testing.assert_allclose(scores, direct, rtol=1e-9, atol=1e-12 * (y @ y))


class TestFitResult:
    def test_json_round_trip_lossless(self):
        y, _ = synthetic("shifted_t_ln_t", noise=0.001)
        r = fit_points(T120, y, "shifted_t_ln_t", t_origin="2006-01")
        doc = json.loads(json.dumps(r.to_json()))
        again = FitResult.from_json(doc)
        assert again.model == r.model
        assert again.mape == r.mape
        assert again.signed_mpe == r.signed_mpe
        assert np.array_equal(again.residuals, r.residuals)
        assert np.array_equal(again.t, r.t)
        assert np.array_equal(again.y, r.y)
        assert again.at_bound == r.at_bound

    def test_residual_invariants(self):
        y, _ = synthetic("linear", noise=0.01)
        r = fit_points(T120, y, "linear")
        assert len(r.residuals) == len(y)
        mask = y != 0
        assert r.mape == pytest.approx(float(np.mean(np.abs(r.residuals[mask] / y[mask]))))
        # signed: (prediction - actual) / actual
        assert r.signed_mpe == pytest.approx(float(np.mean(r.residuals[mask] / y[mask])))
        assert r.predictions == pytest.approx(y + r.residuals)


class TestAtBound:
    def test_shift_beyond_search_range(self):
        # the shift search stops at base + 4000 = 3999 for t starting at 1
        y = np.asarray(GrowthModel("shifted_t_ln_t", (2.0, 6000.0, 5.0)).evaluate(T120))
        r = fit_points(T120, y, "shifted_t_ln_t")
        assert r.converged
        assert r.model.params[1] == pytest.approx(3999.0)
        assert r.at_bound

    def test_shift_below_first_grid_offset(self):
        # t + s > 1 is open at s = 0; the search starts at s = 1e-6, below the
        # grid's first geometric offset of 1e-3
        y = np.asarray(GrowthModel("t_over_ln_t", (2.0, 0.0005, 5.0)).evaluate(T120))
        r = fit_points(T120, y, "t_over_ln_t")
        assert r.model.params[1] == pytest.approx(0.0005, rel=1e-6)
        assert r.mape <= 1e-8
        assert not r.at_bound

    def test_rate_beyond_cap(self):
        t = np.arange(1.0, 13.0)
        y = np.asarray(GrowthModel("exponential", (1.0, 5.0, 0.0)).evaluate(t))
        r = fit_points(t, y, "exponential")
        assert r.model.params[1] == pytest.approx(4.0)
        assert r.at_bound

    def test_old_report_reads_as_not_at_bound(self):
        y, _ = synthetic("log_integral")
        doc = fit_points(T120, y, "log_integral", t_origin="2006-01").to_json()
        del doc["at_bound"]
        assert FitResult.from_json(doc).at_bound is False
