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

Each family is defined once, by the linear design ``basis`` that the
variable-projection fitter solves; its value is derived from that basis.
``Li`` has one implementation, the closed form ``Ei(ln x) - Ei(ln 2)``,
with the exponential integral ``Ei`` computed in-package by :func:`_expi`.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .months import month_index, parse_month

__all__ = [
    "DomainError",
    "FamilySpec",
    "GrowthModel",
    "STANDARD_FAMILIES",
    "QUASI_LINEAR_FAMILIES",
    "family_spec",
    "log_integral",
    "model_catalog",
]

#: Lower limit of the offset logarithmic integral Li(x) = int_2^x du/ln(u).
LI_LOWER = 2.0

#: ``Ei(ln 2)``, bit for bit what :func:`_expi` and ``scipy.special.expi``
#: return (a test pins both), so ``log_integral(2.0) == 0.0``.
_LI_AT_LOWER = 1.0451637801174922

#: Euler-Mascheroni constant, the constant term of Ei's power series.
_EULER = 0.5772156649015329

#: Above this argument Ei switches to its asymptotic series.  specfun's EIX switches
#: at 40, but up to 50 the power series is within 18 ULP, the asymptotic one 201.
_EI_SERIES_MAX = 50.0


class DomainError(ValueError):
    """Argument outside the valid domain of a model or special function."""


def log_integral(x: float) -> float:
    """Offset logarithmic integral ``Li(x) = int_2^x du / ln(u)``.

    Computed in closed form as ``Ei(ln x) - Ei(ln 2)``, the expression the
    ``log_integral`` family evaluates, with the in-package exponential
    integral :func:`_expi`.  The lower limit 2 avoids the
    integrand pole at u = 1; model offsets absorb the constant difference
    from other conventions.  Requires ``x >= 2``.
    """
    x = float(x)
    if not math.isfinite(x) or x < LI_LOWER:
        raise DomainError(f"log_integral requires x >= {LI_LOWER}, got {x}")
    return float(_li(x))


def _li(x: float | np.ndarray) -> float | np.ndarray:
    # li(x) = Ei(ln x), offset so that Li(2) = 0
    return _expi(np.log(x)) - _LI_AT_LOWER


def _expi(x: float | np.ndarray) -> float | np.ndarray:
    """Exponential integral ``Ei(x)`` for ``x > 0``, elementwise.

    Up to ``x = 50`` it sums the power series ``γ + ln x + Σ x^k/(k·k!)``;
    above, specfun's 20-term asymptotic series ``e^x/x · Σ k!/x^k``.  It is
    finite up to ``ln(sys.float_info.max)``.
    """
    x = np.asarray(x, dtype=float)
    small = x <= _EI_SERIES_MAX
    if small.all():
        return _ei_series(x)
    out = np.empty_like(x)
    out[small] = _ei_series(x[small])
    out[~small] = _ei_asymptotic(x[~small])
    return out[()]


def _ei_series(x: np.ndarray) -> np.ndarray:
    # x * (1 + sum of R_k), R_k = R_(k-1) * k*x / (k+1)^2, is sum x^k / (k k!).
    # Every element runs to one shared stop, checked every 8 terms.  A term
    # below 2^-54 of its sum is under half an ULP of it, and so is every later
    # (smaller) term, so running on leaves that sum unchanged: an element's
    # value does not depend on the rest of the array.
    term = np.ones_like(x)
    total = np.ones_like(x)
    k = 0
    while not (term < total * 2.0**-54).all():
        for _ in range(8):
            k += 1
            term *= x * (k / (k + 1) ** 2)
            total += term
    return _EULER + np.log(x) + x * total


def _ei_asymptotic(x: np.ndarray) -> np.ndarray:
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 21):
        term = term * k / x
        total += term
    return np.exp(x) / x * total


# ---------------------------------------------------------------------------
# family registry


@dataclass(frozen=True)
class FamilySpec:
    """Algebraic description of one growth-law family.

    ``basis(t, nl)`` is the family's one definition: the linear design for
    a value ``nl`` of the single parameter at ``nonlinear_index`` (None when
    every parameter enters linearly).  The parameter vector is the basis
    coefficients with ``nl`` inserted at ``nonlinear_index``, and the value
    is ``basis(t, nl) @ coefficients``, exponentiated for ``log_space``
    families (which are fitted on ``ln y``).  ``arg_threshold`` and
    ``arg_inclusive`` bound ``t + s`` from below, where the shift ``s`` is
    the nonlinear parameter when there is one and 0 otherwise.
    """

    name: str
    param_names: tuple[str, ...]
    basis: Callable[[np.ndarray, float | None], np.ndarray]
    arg_threshold: float | None = None
    arg_inclusive: bool = False
    nonlinear_index: int | None = None
    log_space: bool = False

    @property
    def arity(self) -> int:
        return len(self.param_names)

    @property
    def shifted(self) -> bool:
        """Whether the nonlinear parameter is a shift added to ``t``."""
        return self.nonlinear_index is not None and self.arg_threshold is not None

    def value(self, p, t) -> np.ndarray:
        """Family value at ``t`` (any shape) for the parameter vector ``p``."""
        coefs = list(p)
        nl = None if self.nonlinear_index is None else coefs.pop(self.nonlinear_index)
        t = np.asarray(t, dtype=float)
        out = (self.basis(t.reshape(-1), nl) @ coefs).reshape(t.shape)
        return np.exp(out) if self.log_space else out


def _ones_like(t: np.ndarray) -> np.ndarray:
    return np.ones_like(t, dtype=float)


def _shift_family(
    name: str,
    transform: Callable[[np.ndarray], np.ndarray],
    threshold: float,
    inclusive: bool,
) -> FamilySpec:
    """Family of the form a * g(t + s) + b with one profiled shift s."""
    return FamilySpec(
        name=name,
        param_names=("a", "s", "b"),
        basis=lambda t, s: np.column_stack([transform(t + s), _ones_like(t)]),
        arg_threshold=threshold,
        arg_inclusive=inclusive,
        nonlinear_index=1,
    )


def _make_families() -> dict[str, FamilySpec]:
    fams: dict[str, FamilySpec] = {}

    fams["constant"] = FamilySpec(
        name="constant",
        param_names=("a",),
        basis=lambda t, _nl: _ones_like(t)[:, None],
    )

    fams["linear"] = FamilySpec(
        name="linear",
        param_names=("a", "b"),
        basis=lambda t, _nl: np.column_stack([t, _ones_like(t)]),
    )

    fams["logarithmic"] = _shift_family("logarithmic", np.log, threshold=0.0, inclusive=False)

    fams["reciprocal_log"] = _shift_family(
        "reciprocal_log", lambda u: 1.0 / np.log(u), threshold=1.0, inclusive=False
    )

    fams["t_over_ln_t"] = _shift_family(
        "t_over_ln_t", lambda u: u / np.log(u), threshold=1.0, inclusive=False
    )

    fams["log_integral"] = _shift_family(
        "log_integral", _li, threshold=LI_LOWER, inclusive=True
    )

    fams["shifted_t_ln_t"] = _shift_family(
        "shifted_t_ln_t", lambda u: u * np.log(u), threshold=0.0, inclusive=False
    )

    fams["t_ln_t"] = FamilySpec(
        name="t_ln_t",
        param_names=("a", "c", "b"),
        basis=lambda t, _nl: np.column_stack([t * np.log(t), t, _ones_like(t)]),
        arg_threshold=0.0,
        arg_inclusive=False,
    )

    fams["exponential"] = FamilySpec(
        name="exponential",
        param_names=("a", "r", "b"),
        basis=lambda t, r: np.column_stack([np.exp(r * t), _ones_like(t)]),
        nonlinear_index=1,
    )

    fams["sub_exponential"] = FamilySpec(
        name="sub_exponential",
        param_names=("a", "s", "b"),
        basis=lambda t, s: np.column_stack([t / np.log(t + s), _ones_like(t)]),
        arg_threshold=1.0,
        arg_inclusive=False,
        nonlinear_index=1,
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


def _polynomial_spec(degree: int) -> FamilySpec:
    if degree < 0:
        raise ValueError("polynomial degree must be >= 0")

    return FamilySpec(
        name=f"polynomial{degree}",
        param_names=tuple(f"c{k}" for k in range(degree, -1, -1)),
        basis=lambda t, _nl: np.column_stack([t**k for k in range(degree, -1, -1)]),
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

    def _check_domain(self, t: np.ndarray) -> None:
        spec = self.spec
        if spec.arg_threshold is None:
            return
        shift = self.params[spec.nonlinear_index] if spec.shifted else 0.0
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
