"""Closed-form growth-law families and the logarithmic integral.

The family zoo covers the laws that show up when modelling corpus growth
(article counts, category counts, link totals): polynomial bulk-import
phases, quasi-linear organic phases shaped like ``t/ln t``, ``Li(t)`` or
``t ln t``, and (sub-)exponential publication counts.  Each family is a
fixed algebraic form over a month index ``t >= 1`` with a small ordered
parameter vector; models carry a calendar ``t_origin`` so index 1 maps to
a concrete month.

Families and their parameter vectors::

    constant         (a,)        a
    linear           (a, b)      a*t + b
    polynomialN      (c_N..c_0)  c_N*t^N + ... + c_0
    logarithmic      (a, s, b)   a*ln(t+s) + b
    reciprocal_log   (a, s, b)   a/ln(t+s) + b
    t_over_ln_t      (a, s, b)   a*(t+s)/ln(t+s) + b
    log_integral     (a, s, b)   a*Li(t+s) + b
    t_ln_t           (a, c, b)   a*t*ln(t) + c*t + b
    shifted_t_ln_t   (a, s, b)   a*(t+s)*ln(t+s) + b
    exponential      (a, r, b)   a*exp(r*t) + b
    sub_exponential  (a, s, b)   exp(a*t/ln(t+s) + b)

``reciprocal_log`` and ``logarithmic`` are increment laws: they describe
the monthly gain of a quantity, so their ``increment`` is the model value
itself.  The cumulative families return an analytic derivative where one
exists and the discrete difference otherwise.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import expi

from .months import month_index, parse_month

__all__ = [
    "DomainError",
    "FamilySpec",
    "GrowthModel",
    "STANDARD_FAMILIES",
    "QUASI_LINEAR_FAMILIES",
    "INCREMENT_LAW_FAMILIES",
    "family_spec",
    "log_integral",
    "li_three_term",
    "model_catalog",
]

#: Lower limit of the offset logarithmic integral Li(x) = int_2^x du/ln(u).
LI_LOWER = 2.0

_LI_AT_LOWER = float(expi(math.log(LI_LOWER)))


class DomainError(ValueError):
    """Argument outside the valid domain of a model or special function."""


def log_integral(x: float, rel_tol: float = 1e-10) -> float:
    """Offset logarithmic integral ``Li(x) = int_2^x du / ln(u)``.

    Computed by adaptive Gauss-Kronrod quadrature to a relative error of
    at most ``rel_tol``.  The lower limit 2 avoids the integrand pole at
    u = 1; model offsets absorb the constant difference from other
    conventions.

    Parameters
    ----------
    x : float
        Upper integration limit, must be >= 2.
    rel_tol : float
        Requested relative error, in [1e-12, 1e-3].
    """
    if not 1e-12 <= rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must lie in [1e-12, 1e-3], got {rel_tol}")
    x = float(x)
    if not math.isfinite(x) or x < LI_LOWER:
        raise DomainError(f"log_integral requires x >= {LI_LOWER}, got {x}")
    if x == LI_LOWER:
        return 0.0
    value, _ = integrate.quad(
        lambda u: 1.0 / math.log(u), LI_LOWER, x, epsabs=0.0, epsrel=rel_tol, limit=200
    )
    return value


def _li_bulk(x: np.ndarray) -> np.ndarray:
    # Vectorized Li via the exponential integral: li(x) = Ei(ln x).  Used on
    # the model-evaluation path where quadrature per point would be wasteful;
    # agrees with log_integral to well below its tolerance floor.
    return expi(np.log(x)) - _LI_AT_LOWER


def li_three_term(x: float | np.ndarray) -> float | np.ndarray:
    """Three-term quasi-linear approximation of the logarithmic integral.

    Returns ``(x/ln x) * (1 + 1/ln x + 3/(ln x)^2)``.  The third term uses
    coefficient 3, a deliberately heavier correction than the asymptotic
    series coefficient 2, so the curve approaches ``log_integral`` from
    above for large ``x``; the ratio of the two tends to 1 as x grows.

    Requires ``x >= 3``.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 3.0):
        raise DomainError("li_three_term requires x >= 3")
    ln = np.log(arr)
    out = (arr / ln) * (1.0 + 1.0 / ln + 3.0 / ln**2)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# family registry


@dataclass(frozen=True)
class FamilySpec:
    """Algebraic description of one growth-law family.

    ``shift_index`` marks the parameter added to ``t`` before any logarithm;
    ``arg_threshold``/``arg_inclusive`` bound that argument from below.
    ``nonlinear_index`` names the single parameter the fitter must search
    over (the rest enter linearly); ``basis`` gives the linear design for a
    value of it, and the fitted parameters are the basis coefficients with
    that value inserted at ``nonlinear_index``.  ``log_space`` families are
    fitted on ``ln y``.
    """

    name: str
    param_names: tuple[str, ...]
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    arg_threshold: float | None = None
    arg_inclusive: bool = False
    shift_index: int | None = None
    nonlinear_index: int | None = None
    basis: Callable[[np.ndarray, float], np.ndarray] | None = None
    log_space: bool = False
    analytic_increment: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    increment_is_value: bool = False

    @property
    def arity(self) -> int:
        return len(self.param_names)


def _ones_like(t: np.ndarray) -> np.ndarray:
    return np.ones_like(t, dtype=float)


def _shift_family(
    name: str,
    transform: Callable[[np.ndarray], np.ndarray],
    threshold: float,
    inclusive: bool,
    analytic_increment=None,
    increment_is_value: bool = False,
) -> FamilySpec:
    """Family of the form a * g(t + s) + b with one profiled shift s."""

    def value(p, t):
        return p[0] * transform(t + p[1]) + p[2]

    def basis(t, s):
        return np.column_stack([transform(t + s), _ones_like(t)])

    return FamilySpec(
        name=name,
        param_names=("a", "s", "b"),
        value=value,
        arg_threshold=threshold,
        arg_inclusive=inclusive,
        shift_index=1,
        nonlinear_index=1,
        basis=basis,
        analytic_increment=analytic_increment,
        increment_is_value=increment_is_value,
    )


def _make_families() -> dict[str, FamilySpec]:
    fams: dict[str, FamilySpec] = {}

    fams["constant"] = FamilySpec(
        name="constant",
        param_names=("a",),
        value=lambda p, t: np.full_like(np.asarray(t, dtype=float), p[0]),
        basis=lambda t, _nl: _ones_like(t)[:, None],
    )

    fams["linear"] = FamilySpec(
        name="linear",
        param_names=("a", "b"),
        value=lambda p, t: p[0] * t + p[1],
        basis=lambda t, _nl: np.column_stack([t, _ones_like(t)]),
    )

    fams["logarithmic"] = _shift_family(
        "logarithmic", np.log, threshold=0.0, inclusive=False, increment_is_value=True
    )

    fams["reciprocal_log"] = _shift_family(
        "reciprocal_log",
        lambda u: 1.0 / np.log(u),
        threshold=1.0,
        inclusive=False,
        increment_is_value=True,
    )

    fams["t_over_ln_t"] = _shift_family(
        "t_over_ln_t", lambda u: u / np.log(u), threshold=1.0, inclusive=False
    )

    fams["log_integral"] = _shift_family(
        "log_integral",
        _li_bulk,
        threshold=LI_LOWER,
        inclusive=True,
        # d/dt a*Li(t+s) = a / ln(t+s): the reciprocal-of-logarithm increment
        analytic_increment=lambda p, t: p[0] / np.log(t + p[1]),
    )

    fams["shifted_t_ln_t"] = _shift_family(
        "shifted_t_ln_t",
        lambda u: u * np.log(u),
        threshold=0.0,
        inclusive=False,
        analytic_increment=lambda p, t: p[0] * (np.log(t + p[1]) + 1.0),
    )

    def _tlnt_value(p, t):
        return p[0] * t * np.log(t) + p[1] * t + p[2]

    fams["t_ln_t"] = FamilySpec(
        name="t_ln_t",
        param_names=("a", "c", "b"),
        value=_tlnt_value,
        arg_threshold=0.0,
        arg_inclusive=False,
        basis=lambda t, _nl: np.column_stack([t * np.log(t), t, _ones_like(t)]),
        analytic_increment=lambda p, t: p[0] * (np.log(t) + 1.0) + p[1],
    )

    def _exp_value(p, t):
        return p[0] * np.exp(p[1] * t) + p[2]

    fams["exponential"] = FamilySpec(
        name="exponential",
        param_names=("a", "r", "b"),
        value=_exp_value,
        nonlinear_index=1,
        basis=lambda t, r: np.column_stack([np.exp(r * t), _ones_like(t)]),
    )

    def _subexp_value(p, t):
        return np.exp(p[0] * t / np.log(t + p[1]) + p[2])

    fams["sub_exponential"] = FamilySpec(
        name="sub_exponential",
        param_names=("a", "s", "b"),
        value=_subexp_value,
        arg_threshold=1.0,
        arg_inclusive=False,
        shift_index=1,
        nonlinear_index=1,
        basis=lambda t, s: np.column_stack([t / np.log(t + s), _ones_like(t)]),
        log_space=True,
    )

    return fams


_FAMILIES = _make_families()
_POLY_RE = re.compile(r"^polynomial(\d*)$")

#: The eleven standard families, in canonical order.
STANDARD_FAMILIES: tuple[str, ...] = (
    "constant",
    "linear",
    "polynomial3",
    "logarithmic",
    "reciprocal_log",
    "t_over_ln_t",
    "log_integral",
    "t_ln_t",
    "shifted_t_ln_t",
    "exponential",
    "sub_exponential",
)

#: Families growing between t/ln(t) and t*ln(t) (plus linear itself) -- the
#: mature-corpus candidates.
QUASI_LINEAR_FAMILIES: tuple[str, ...] = (
    "linear",
    "t_over_ln_t",
    "log_integral",
    "t_ln_t",
    "shifted_t_ln_t",
)

#: Families whose value is itself a monthly increment, not a cumulative total.
INCREMENT_LAW_FAMILIES: tuple[str, ...] = ("reciprocal_log", "logarithmic")


def _polynomial_spec(degree: int) -> FamilySpec:
    if degree < 0:
        raise ValueError("polynomial degree must be >= 0")

    def value(p, t):
        return np.polyval(p, t)

    def basis(t, _nl, _deg=degree):
        return np.column_stack([t**k for k in range(_deg, -1, -1)])

    return FamilySpec(
        name=f"polynomial{degree}",
        param_names=tuple(f"c{k}" for k in range(degree, -1, -1)),
        value=value,
        basis=basis,
    )


def family_spec(name: str) -> FamilySpec:
    """Look up a family by tag; ``polynomialN`` tags are built on demand."""
    if name in _FAMILIES:
        return _FAMILIES[name]
    m = _POLY_RE.match(name)
    if m:
        return _polynomial_spec(int(m.group(1)) if m.group(1) else 3)
    raise ValueError(f"unknown growth-law family: {name!r}")


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class GrowthModel:
    """One parameterized growth law anchored to a calendar origin.

    ``t_origin`` is the ISO month (``YYYY-MM``) mapping to index t = 1;
    it may be None for models used purely on abstract indices.
    """

    family: str
    params: tuple[float, ...]
    t_origin: str | None = None

    def __post_init__(self) -> None:
        spec = family_spec(self.family)
        object.__setattr__(self, "family", spec.name)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if len(params) != spec.arity:
            raise ValueError(
                f"family {spec.name!r} takes {spec.arity} parameters "
                f"({', '.join(spec.param_names)}), got {len(params)}"
            )
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"non-finite parameter in {params}")
        if self.t_origin is not None:
            parse_month(self.t_origin)

    @property
    def spec(self) -> FamilySpec:
        return family_spec(self.family)

    @property
    def min_t(self) -> float | None:
        """Infimum of valid t (inclusive when the family allows equality)."""
        spec = self.spec
        if spec.arg_threshold is None:
            return None
        shift = self.params[spec.shift_index] if spec.shift_index is not None else 0.0
        return spec.arg_threshold - shift

    def _check_domain(self, t: np.ndarray) -> None:
        spec = self.spec
        if spec.arg_threshold is None:
            return
        shift = self.params[spec.shift_index] if spec.shift_index is not None else 0.0
        arg = np.atleast_1d(t) + shift
        bad = arg < spec.arg_threshold if spec.arg_inclusive else arg <= spec.arg_threshold
        if np.any(bad):
            op = ">=" if spec.arg_inclusive else ">"
            raise DomainError(
                f"{self.family} requires t + {shift:g} {op} {spec.arg_threshold:g}; "
                f"offending t = {np.atleast_1d(t)[bad].min():g}"
            )

    def evaluate(self, t: float | np.ndarray) -> float | np.ndarray:
        """Closed-form value at month index ``t`` (scalar or array)."""
        arr = np.asarray(t, dtype=float)
        self._check_domain(arr)
        out = self.spec.value(self.params, arr)
        return float(out) if arr.ndim == 0 else out

    def increment(self, t: float | np.ndarray) -> float | np.ndarray:
        """Monthly increment at ``t``.

        Increment-law families (``reciprocal_log``, ``logarithmic``) return
        their own value; cumulative families return the analytic derivative
        where the family defines one and the discrete difference
        ``evaluate(t+1) - evaluate(t)`` otherwise.
        """
        spec = self.spec
        if spec.increment_is_value:
            return self.evaluate(t)
        arr = np.asarray(t, dtype=float)
        self._check_domain(arr)
        if spec.analytic_increment is not None:
            out = spec.analytic_increment(self.params, arr)
            return float(out) if arr.ndim == 0 else out
        return self.evaluate(arr + 1.0) - self.evaluate(arr)

    def index_of(self, month: str) -> int:
        if self.t_origin is None:
            raise ValueError("model has no t_origin; cannot map calendar months")
        return month_index(self.t_origin, month)

    def to_json(self) -> dict:
        return {"family": self.family, "params": list(self.params), "t_origin": self.t_origin}

    @classmethod
    def from_json(cls, doc: dict) -> "GrowthModel":
        return cls(
            family=doc["family"],
            params=tuple(doc["params"]),
            t_origin=doc.get("t_origin"),
        )


def model_catalog() -> dict[str, GrowthModel]:
    """Named reference models for the Wikipedia / MAG growth analyses.

    Returns six models, each with its own calendar calibration:

    - ``wiki_articles_increment``: monthly English-Wikipedia article gain,
      140000/ln(t), t counted from the 2001-01 inception.
    - ``wiki_categories``: cumulative category count 2000*(t+12)*ln(t+12)
      with t = 1 at 2006-01 (so 2023-01 is t = 205).
    - ``wag_articles``: academic-group article count 30*t + 3800, t from
      2007-01.
    - ``mag_fields``: field-of-study count 2467*t*ln(t) - 2467*t + 147079.
    - ``mag_papers_log``: natural log of the cumulative paper count,
      0.4*(t/ln t) + 19.53 (valid from t = 2; exponentiate for counts).
    - ``wiki_inclusion``: papers included in Wikipedia references,
      160000*(c*t)*ln(c*t) + 300000 with c = 0.033, expanded into the
      ``t_ln_t`` parameter form.
    """
    incl_scale = 160000.0 * 0.033
    return {
        "wiki_articles_increment": GrowthModel(
            "reciprocal_log", (140000.0, 0.0, 0.0), t_origin="2001-01"
        ),
        "wiki_categories": GrowthModel(
            "shifted_t_ln_t", (2000.0, 12.0, 0.0), t_origin="2006-01"
        ),
        "wag_articles": GrowthModel("linear", (30.0, 3800.0), t_origin="2007-01"),
        "mag_fields": GrowthModel(
            "t_ln_t", (2467.0, -2467.0, 147079.0), t_origin="2015-01"
        ),
        "mag_papers_log": GrowthModel(
            "t_over_ln_t", (0.4, 0.0, 19.53), t_origin="2000-01"
        ),
        "wiki_inclusion": GrowthModel(
            "t_ln_t",
            (incl_scale, incl_scale * math.log(0.033), 300000.0),
            t_origin="2005-01",
        ),
    }
