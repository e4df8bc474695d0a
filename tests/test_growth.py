"""Growth-law families, the logarithmic integral, and the model catalog."""
import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from knowgrow import growth
from knowgrow.growth import (
    QUASI_LINEAR_FAMILIES,
    STANDARD_FAMILIES,
    DomainError,
    GrowthModel,
    family_spec,
    log_integral,
    model_catalog,
)

from _oracles import decimal_expi, simpson_li

LI_PROBES = [10.0, 1e2, 1e3, 1e4, 1e5, 1e6]


class TestLogIntegral:
    def test_oracle_self_consistency(self):
        # doubling the fixed step count must not move the oracle at 1e-11 rel
        for x in (10.0, 1e3, 1e6):
            coarse = simpson_li(x, steps_per_segment=4096)
            fine = simpson_li(x, steps_per_segment=8192)
            assert abs(fine - coarse) <= 1e-11 * abs(fine)

    def test_matches_simpson_oracle(self):
        for x in LI_PROBES:
            expected = simpson_li(x)
            assert log_integral(x) == pytest.approx(expected, rel=1e-9)

    def test_lower_limit_is_zero(self):
        assert log_integral(2.0) == 0.0

    def test_offset_constant_is_scipys_value_bit_for_bit(self):
        # a last-bit difference would shift every log_integral fit report
        assert growth._LI_AT_LOWER == float(scipy.special.expi(np.log(growth.LI_LOWER)))

    def test_value_at_ten(self):
        # frozen from the Simpson oracle: li(10) - li(2)
        assert log_integral(10.0) == pytest.approx(5.1204357246698, rel=1e-10)

    def test_strictly_increasing(self):
        xs = np.geomspace(2.5, 1e6, 40)
        vals = [log_integral(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_asymptotic_dominance_over_t_over_ln_t(self):
        x = 1e6
        ratio = log_integral(x) / (x / math.log(x))
        assert 1.0 < ratio < 1.2

    def test_domain_error_below_two(self):
        with pytest.raises(DomainError):
            log_integral(1.5)

    def test_finite_at_largest_float(self):
        assert math.isfinite(log_integral(sys.float_info.max))

    def test_float_in_float_out(self):
        assert type(log_integral(3.0)) is float
        assert isinstance(growth._expi(1.5), float)
        assert isinstance(growth._expi(60.0), float)
        assert isinstance(growth._li(3.0), float)


# Ei arguments of log_integral: ln 2 to ln 5000 covers the fits, then the
# power series' range up to 40 and the asymptotic series' range from 50 up to
# the largest float's log; each with its bound in ULPs of scipy's value.
# scipy itself switches series at 40 and is up to 207 ULP off in (40, 50],
# so that stretch is checked against a decimal reference instead.
EXPI_RANGES = {
    "fits": (math.log(2.0), math.log(5000.0), 12),
    "series": (math.log(5000.0), 40.0, 32),
    "asymptotic": (np.nextafter(50.0, 51.0), math.log(sys.float_info.max), 4),
}


class TestExpi:
    @pytest.mark.parametrize("name", sorted(EXPI_RANGES))
    def test_matches_scipy_within_ulps(self, name):
        lo, hi, bound = EXPI_RANGES[name]
        x = np.random.default_rng(sorted(EXPI_RANGES).index(name)).uniform(lo, hi, 4000)
        ref = scipy.special.expi(x)
        assert np.all(np.abs(growth._expi(x) - ref) <= bound * np.spacing(ref))

    def test_series_past_40_matches_decimal_reference(self):
        x = np.random.default_rng(3).uniform(40.0, 50.0, 2000)
        x[-1] = 50.0  # the last argument summed by the power series
        ref = np.array([decimal_expi(v) for v in x])
        assert np.all(np.abs(growth._expi(x) - ref) <= 24 * np.spacing(ref))

    def test_at_ln_two_is_the_offset_constant_bit_for_bit(self):
        assert growth._expi(math.log(2.0)) == growth._LI_AT_LOWER

    def test_value_does_not_depend_on_the_rest_of_the_array(self):
        # the series runs all elements to one shared stop
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(math.log(2.0), 40.0, 300), rng.uniform(40.0, 700.0, 30)])
        rng.shuffle(x)
        whole = growth._expi(x)
        assert [growth._expi(v) for v in x] == list(whole)
        assert np.array_equal(growth._expi(x[:20]), whole[:20])

    def test_keeps_shape(self):
        x = np.array([[0.5, 1.0], [55.0, 2.0]])
        assert growth._expi(x).shape == (2, 2)
        assert growth._expi(np.array([])).shape == (0,)


class TestEvaluate:
    def test_wag_linear_hand_value(self):
        wag = model_catalog()["wag_articles"]
        assert wag.evaluate(10) == pytest.approx(4100.0)

    def test_category_model_reproduces_2023_count(self):
        wc = model_catalog()["wiki_categories"]
        t = wc.index_of("2023-01")
        assert t == 205
        assert wc.evaluate(t) == pytest.approx(2_334_875, rel=1e-3)

    def test_mag_fields_at_origin(self):
        mf = model_catalog()["mag_fields"]
        assert mf.evaluate(1) == pytest.approx(144_612.0)

    def test_vectorized_matches_scalar(self):
        m = GrowthModel("log_integral", (140000.0, 100.0, 1_350_000.0))
        ts = np.array([1.0, 10.0, 100.0])
        vec = m.evaluate(ts)
        assert vec == pytest.approx([m.evaluate(float(t)) for t in ts])

    def test_reciprocal_log_catalog_hand_value(self):
        mi = model_catalog()["wiki_articles_increment"]  # 140000 / ln(t)
        assert mi.evaluate(math.e**5) == pytest.approx(28000.0)

    def test_logarithmic_hand_value(self):
        mc = GrowthModel("logarithmic", (2000.0, 0.0, 0.0))
        assert mc.evaluate(math.e) == pytest.approx(2000.0)

    def test_domain_error_on_invalid_t(self):
        mi = model_catalog()["wiki_articles_increment"]  # 140000 / ln(t)
        with pytest.raises(DomainError):
            mi.evaluate(1)  # ln(1) = 0
        m = GrowthModel("log_integral", (1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            m.evaluate(1.5)  # below the Li lower limit


# each family written out by hand, independently of its basis; Li comes
# from the Simpson oracle
HAND_WRITTEN = {
    "constant": ((7.5,), lambda t: 7.5 + 0.0 * t),
    "linear": ((3.0, 7.0), lambda t: 3.0 * t + 7.0),
    "polynomial2": ((0.5, 2.0, 3.0), lambda t: 0.5 * t**2 + 2.0 * t + 3.0),
    "polynomial3": ((0.5, 1.0, 2.0, 3.0), lambda t: 0.5 * t**3 + t**2 + 2.0 * t + 3.0),
    "logarithmic": ((10.0, 1.5, 5.0), lambda t: 10.0 * np.log(t + 1.5) + 5.0),
    "reciprocal_log": ((1400.0, 2.0, 50.0), lambda t: 1400.0 / np.log(t + 2.0) + 50.0),
    "t_over_ln_t": ((4.0, 3.0, 1.0), lambda t: 4.0 * (t + 3.0) / np.log(t + 3.0) + 1.0),
    "log_integral": (
        (7.0, 2.0, 11.0),
        lambda t: np.array([7.0 * simpson_li(x + 2.0) + 11.0 for x in t]),
    ),
    "t_ln_t": ((2.0, 1.0, 3.0), lambda t: 2.0 * t * np.log(t) + t + 3.0),
    "shifted_t_ln_t": ((2.0, 1.0, 0.5), lambda t: 2.0 * (t + 1.0) * np.log(t + 1.0) + 0.5),
    "exponential": ((1.5, 0.05, 2.0), lambda t: 1.5 * np.exp(0.05 * t) + 2.0),
    "sub_exponential": ((0.2, 2.0, 1.0), lambda t: np.exp(0.2 * t / np.log(t + 2.0) + 1.0)),
}


@pytest.mark.parametrize("family", [*STANDARD_FAMILIES, "polynomial2"])
def test_evaluate_matches_hand_written_formula(family):
    params, formula = HAND_WRITTEN[family]
    ts = np.array([3.0, 50.0, 600.0])
    m = GrowthModel(family, params)
    expected = formula(ts)
    assert np.asarray(m.evaluate(ts)) == pytest.approx(expected, rel=1e-12)
    assert [m.evaluate(t) for t in ts] == pytest.approx(expected, rel=1e-12)


class TestFamilies:
    def test_arity_validation(self):
        with pytest.raises(ValueError, match="parameters"):
            GrowthModel("linear", (1.0,))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            GrowthModel("quadratic_log", (1.0,))

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GrowthModel("linear", (math.nan, 0.0))

    def test_polynomial_degree_from_name(self):
        assert family_spec("polynomial2").arity == 3
        assert family_spec("polynomial").arity == 4  # default cubic
        m = GrowthModel("polynomial", (1.0, 0.0, 0.0, 0.0))
        assert m.family == "polynomial3"
        assert m.evaluate(3.0) == pytest.approx(27.0)

    def test_standard_family_count(self):
        assert len(STANDARD_FAMILIES) == 11
        assert set(QUASI_LINEAR_FAMILIES) <= set(STANDARD_FAMILIES)

    _GROWING = {
        "linear": (3.0, 7.0),
        "polynomial3": (0.5, 1.0, 2.0, 3.0),
        "logarithmic": (10.0, 1.0, 5.0),
        "t_over_ln_t": (4.0, 3.0, 1.0),
        "log_integral": (7.0, 2.0, 0.0),
        "t_ln_t": (2.0, 1.0, 3.0),
        "shifted_t_ln_t": (2.0, 1.0, 0.0),
        "exponential": (1.5, 0.05, 2.0),
        "sub_exponential": (0.2, 2.0, 1.0),
    }

    @pytest.mark.parametrize("family", sorted(_GROWING))
    def test_positive_scale_families_strictly_increase(self, family):
        m = GrowthModel(family, self._GROWING[family])
        ts = np.arange(1.0, 200.0)
        vals = np.asarray(m.evaluate(ts))
        assert np.all(np.diff(vals) > 0)

    def test_sub_exponential_slower_than_matched_exponential(self):
        sub = GrowthModel("sub_exponential", (0.2, 2.0, 1.0))
        t0 = 50.0
        v = sub.evaluate(t0)
        slope = sub.evaluate(t0 + 1e-4) - sub.evaluate(t0 - 1e-4)
        slope /= 2e-4
        r = slope / v
        exp = GrowthModel("exponential", (v * math.exp(-r * t0), r, 0.0))
        assert exp.evaluate(t0) == pytest.approx(v, rel=1e-6)
        assert sub.evaluate(2 * t0) < exp.evaluate(2 * t0)


class TestCatalog:
    def test_contains_exactly_six_models(self):
        cat = model_catalog()
        assert len(cat) == 6
        assert set(cat) == {
            "wiki_articles_increment",
            "wiki_categories",
            "wag_articles",
            "mag_fields",
            "mag_papers_log",
            "wiki_inclusion",
        }
        assert all(m.t_origin is not None for m in cat.values())

    def test_mag_papers_exponentiates_to_increasing_counts(self):
        m = model_catalog()["mag_papers_log"]
        ts = np.arange(3.0, 300.0)
        counts = np.exp(np.asarray(m.evaluate(ts)))
        assert np.all(counts > 0)
        assert np.all(np.diff(counts) > 0)

    def test_inclusion_offset_at_unit_argument(self):
        incl = model_catalog()["wiki_inclusion"]
        assert incl.evaluate(1.0 / 0.033) == pytest.approx(300000.0, rel=1e-9)


_family_params = st.sampled_from(STANDARD_FAMILIES).flatmap(
    lambda fam: st.tuples(
        st.just(fam),
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=family_spec(fam).arity,
            max_size=family_spec(fam).arity,
        ),
    )
)


class TestSerialization:
    @given(_family_params)
    @settings(max_examples=80)
    def test_json_round_trip(self, fam_params):
        family, params = fam_params
        model = GrowthModel(family, tuple(params), t_origin="2006-01")
        again = GrowthModel.from_json(model.to_json())
        assert again == model

    def test_json_shape(self):
        doc = model_catalog()["wag_articles"].to_json()
        assert doc == {"family": "linear", "params": [30.0, 3800.0], "t_origin": "2007-01"}

    def test_origin_validation(self):
        with pytest.raises(ValueError):
            GrowthModel("linear", (1.0, 2.0), t_origin="2007-13")
