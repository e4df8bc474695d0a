"""Bounded Brent search: bit-for-bit agreement with scipy's, its reference."""
import math
from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from knowgrow._brent import MAXITER, bounded_min, hits_bound


def _scipy(func, lo, hi, xatol):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf on a plateau
        res = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun), bool(res.success), int(res.nfev)


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


# kind: f(x, c, w, lo), given a seeded point c in [lo, hi] and scale w
KINDS = {
    "quadratic": lambda x, c, w, lo: w * (x - c) ** 2,
    "oscillating": lambda x, c, w, lo: math.sin(w * x) + 0.01 * (x - c) ** 2,
    # _lstsq_sse returns inf where a basis is not finite
    "inf_plateau": lambda x, c, w, lo: math.inf if x > c else (x - c) ** 2 - x,
    "nan_region": lambda x, c, w, lo: math.nan if x > c else abs(x - c + 0.1),
    # ties between evaluations steer the bracket updates
    "staircase": lambda x, c, w, lo: float(math.floor(w * abs(x - c))),
    "at_lower_bound": lambda x, c, w, lo: w * (x - lo + 1.0) ** 2,
    "at_upper_bound": lambda x, c, w, lo: -w * x,
    "narrower_than_xatol": lambda x, c, w, lo: (x - c) ** 2,
}


def _cases(kind: str, count: int = 60):
    """``count`` seeded (func, lo, hi, xatol) cases of one kind."""
    rng = np.random.default_rng(sorted(KINDS).index(kind))
    for _ in range(count):
        lo = float(rng.uniform(-10.0, 10.0))
        hi = lo + float(10.0 ** rng.uniform(-6.0, 3.0))
        c = float(rng.uniform(lo, hi))
        w = float(rng.uniform(0.5, 30.0))
        xatol = float(10.0 ** rng.uniform(-12.0, -3.0))
        if kind == "narrower_than_xatol":
            hi = lo + 0.25 * xatol
        yield partial(KINDS[kind], c=c, w=w, lo=lo), lo, hi, xatol


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_matches_scipy_bit_for_bit(kind):
    outcomes = set()
    for func, lo, hi, xatol in _cases(kind):
        x, fx, ok = bounded_min(func, lo, hi, xatol)
        ref_x, ref_fx, ref_ok, _ = _scipy(func, lo, hi, xatol)
        assert (_bits(x), _bits(fx), ok) == (_bits(ref_x), _bits(ref_fx), ref_ok)
        outcomes.add(ok)
        if kind.startswith("at_"):
            assert hits_bound(x, lo, hi, xatol)
    # a search that ends on NaN reports failure; the others converge
    assert outcomes == ({False, True} if kind == "nan_region" else {True})


def test_stops_unconverged_after_maxiter_evaluations():
    # with xatol 0 the stopping tolerance shrinks with |x| as x runs to 0
    calls = []

    def func(v):
        calls.append(v)
        return v

    x, fx, ok = bounded_min(func, 0.0, 1.0, 0.0)
    ref_x, ref_fx, ref_ok, ref_nfev = _scipy(float, 0.0, 1.0, 0.0)
    assert len(calls) == ref_nfev == MAXITER
    assert (_bits(x), _bits(fx), ok) == (_bits(ref_x), _bits(ref_fx), ref_ok)
    assert not ok


def test_hits_bound_is_the_final_tolerance():
    # 8 - 7.9999998 = 2e-7 is inside 2 * (sqrt(eps) * 8 + 1e-8 / 3), about 2.45e-7
    assert hits_bound(7.9999998, 1.05, 8.0, 1e-8)
    assert hits_bound(1.05 + 1e-8, 1.05, 8.0, 1e-8)
    assert not hits_bound(7.999999, 1.05, 8.0, 1e-8)
    assert not hits_bound(3.0, 1.05, 8.0, 1e-8)
