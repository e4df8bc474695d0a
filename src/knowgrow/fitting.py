"""Least-squares fitting of growth-law families to monthly time series.

Every family in :mod:`knowgrow.growth` is linear in all but at most one
parameter (a shift inside a logarithm, or an exponential rate).  The fitter
exploits that: it profiles the single nonlinear parameter over a fixed
deterministic grid, solving an exact linear least-squares problem at each
grid point, and refines the best bracket with a bounded scalar minimizer.
Because the linear coefficients are solved exactly for every value of the
nonlinear one, the profile optimum is the joint least-squares fit (variable
projection, Golub & Pereyra 1973).  No randomness is involved, so fits are
exactly reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .growth import FamilySpec, GrowthModel, family_spec
from .months import add_months, month_index, parse_month

__all__ = [
    "FitError",
    "TimeSeries",
    "FitResult",
    "SegmentSplit",
    "fit",
    "fit_points",
    "mape",
    "select",
    "select_points",
    "forecast",
    "segment_break",
    "ratio_series",
]

#: Results whose MAPE differs by less than this are ranked by parsimony.
MAPE_TIE_WINDOW = 1e-4

#: Points of the nonlinear-parameter grid in a full-precision fit.
GRID_SIZE = 120

#: Coarser grid used to score candidate splits in :func:`segment_break`.
SCAN_GRID_SIZE = 36

#: Fewest points on either side of a :func:`segment_break` split.
MIN_SEGMENT = 6


class FitError(ValueError):
    """Raised when a series cannot be fitted under the requested family."""


@dataclass(frozen=True)
class TimeSeries:
    """Monthly observations of one corpus metric, gap-free by construction.

    ``origin`` is the calendar month of the first value; the i-th value
    (0-based) belongs to ``add_months(origin, i)`` and to month index i+1.
    """

    origin: str
    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        parse_month(self.origin)
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise ValueError("a time series needs at least 2 monthly values")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("time series values must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def t(self) -> np.ndarray:
        return np.arange(1, len(self.values) + 1, dtype=float)

    @property
    def y(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def month_at(self, index: int) -> str:
        """Calendar month of 1-based month index ``index``."""
        return add_months(self.origin, index - 1)

    @property
    def end_month(self) -> str:
        return self.month_at(len(self.values))

    def to_json(self) -> dict:
        return {"origin": self.origin, "values": list(self.values), "label": self.label}

    @classmethod
    def from_json(cls, doc: dict) -> "TimeSeries":
        return cls(origin=doc["origin"], values=tuple(doc["values"]), label=doc.get("label", ""))


@dataclass
class FitResult:
    """Fitted model plus error scores against the data it was fitted to."""

    model: GrowthModel
    mape: float
    signed_mpe: float
    rmse: float
    residuals: np.ndarray
    converged: bool
    t: np.ndarray
    y: np.ndarray

    @property
    def sse(self) -> float:
        return float(self.residuals @ self.residuals)

    @property
    def predictions(self) -> np.ndarray:
        return self.y + self.residuals

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "mape": self.mape,
            "signed_mpe": self.signed_mpe,
            "rmse": self.rmse,
            "residuals": [float(r) for r in self.residuals],
            "converged": self.converged,
            "t": [float(v) for v in self.t],
            "y": [float(v) for v in self.y],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FitResult":
        return cls(
            model=GrowthModel.from_json(doc["model"]),
            mape=doc["mape"],
            signed_mpe=doc["signed_mpe"],
            rmse=doc["rmse"],
            residuals=np.asarray(doc["residuals"], dtype=float),
            converged=doc["converged"],
            t=np.asarray(doc["t"], dtype=float),
            y=np.asarray(doc["y"], dtype=float),
        )


# ---------------------------------------------------------------------------
# core engine


def _lstsq_sse(basis: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray | None]:
    if not np.all(np.isfinite(basis)):
        return math.inf, None
    coefs, *_ = np.linalg.lstsq(basis, target, rcond=None)
    resid = basis @ coefs - target
    return float(resid @ resid), coefs


def _nl_bounds(spec: FamilySpec, t: np.ndarray) -> tuple[float, float]:
    t_min, t_max = float(t.min()), float(t.max())
    if spec.shift_index is not None:
        base = (spec.arg_threshold or 0.0) - t_min
        lo = base if spec.arg_inclusive else base + 1e-6
        hi = base + 4000.0
    else:  # exponential rate: keep exp(r * t_max) representable
        lo, hi = 1e-4, min(4.0, 600.0 / t_max)
    return lo, hi


def _nl_grid(spec: FamilySpec, lo: float, hi: float, size: int) -> np.ndarray:
    if spec.shift_index is not None:
        # geometric spacing of the offset above the domain boundary
        offsets = np.geomspace(min(1e-3, hi - lo), hi - lo, size)
        grid = lo + np.concatenate([[0.0], offsets]) if spec.arg_inclusive else lo + offsets
    else:
        grid = np.geomspace(lo, hi, size) if lo > 0 else np.linspace(lo, hi, size)
    return np.sort(grid)


def fit_points(
    t: np.ndarray,
    y: np.ndarray,
    family: str,
    t_origin: str | None = None,
    _grid_size: int = GRID_SIZE,
) -> FitResult:
    """Fit one family to explicit (month index, value) points.

    This is the engine behind :func:`fit`; use it directly when observations
    are calendar-anchored but not contiguous.
    """
    spec = family_spec(family)
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise FitError("t and y must be equal-length 1-d arrays")
    if len(y) < spec.arity + 2:
        raise FitError(
            f"series too short for {spec.name!r}: need >= {spec.arity + 2} points, got {len(y)}"
        )
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise FitError("non-finite values in input")
    if not np.any(y != 0):
        raise FitError("all-zero series: MAPE scoring undefined")

    if spec.log_space:
        if np.any(y <= 0):
            raise FitError(f"family {spec.name!r} is fitted in log space and needs y > 0")
        target = np.log(y)
    else:
        target = y

    converged = True
    if spec.nonlinear_index is None:
        _, coefs = _lstsq_sse(spec.basis(t, None), target)
        if coefs is None:
            raise FitError(f"degenerate design matrix for {spec.name!r}")
    else:
        lo, hi = _nl_bounds(spec, t)
        grid = _nl_grid(spec, lo, hi, _grid_size)

        def profile(v: float) -> float:
            return _lstsq_sse(spec.basis(t, v), target)[0]

        sses = np.array([profile(v) for v in grid])
        best = int(np.argmin(sses))
        b_lo = grid[max(best - 1, 0)]
        b_hi = grid[min(best + 1, len(grid) - 1)]
        if b_hi > b_lo:
            res = minimize_scalar(
                profile,
                bounds=(b_lo, b_hi),
                method="bounded",
                options={"xatol": 1e-10 * (1.0 + abs(grid[best]))},
            )
            nl = float(res.x) if res.fun <= sses[best] else float(grid[best])
            converged = bool(res.success)
        else:
            nl = float(grid[best])
        _, coefs = _lstsq_sse(spec.basis(t, nl), target)
        if coefs is None:
            raise FitError(f"no feasible {spec.name!r} fit in bounds ({lo:g}, {hi:g})")

    params = list(coefs)  # GrowthModel converts them to floats
    if spec.nonlinear_index is not None:
        params.insert(spec.nonlinear_index, nl)
    model = GrowthModel(spec.name, params, t_origin=t_origin)
    pred = np.asarray(model.evaluate(t), dtype=float)
    residuals = pred - y
    nonzero = y != 0
    rel = residuals[nonzero] / y[nonzero]
    return FitResult(
        model=model,
        mape=float(np.mean(np.abs(rel))),
        signed_mpe=float(np.mean(rel)),
        rmse=float(np.sqrt(np.mean(residuals**2))),
        residuals=residuals,
        converged=converged,
        t=t,
        y=y,
    )


def fit(series: TimeSeries, family: str) -> FitResult:
    """Fit one growth-law family to a monthly series.

    On noiseless data generated by the same family the parameters are
    recovered essentially exactly; the ``converged`` flag reports whether
    the bounded scalar refinement of the nonlinear parameter met its
    tolerance (always ``True`` for families without one).
    """
    return fit_points(series.t, series.y, family, t_origin=series.origin)


def mape(series: TimeSeries, model: GrowthModel) -> dict:
    """MAPE and signed mean percentage error of ``model`` against ``series``.

    The signed form keeps the sign of (prediction - actual) / actual, so a
    model undershooting by 0.78 percent everywhere scores -0.0078.
    """
    y = series.y
    if np.any(y == 0):
        raise ValueError("series contains zero actuals; MAPE undefined")
    if model.t_origin is not None:
        start = month_index(model.t_origin, series.origin)
        t = np.arange(start, start + len(y), dtype=float)
    else:
        t = series.t
    rel = (np.asarray(model.evaluate(t)) - y) / y
    return {"mape": float(np.mean(np.abs(rel))), "signed_mpe": float(np.mean(rel))}


def select_points(
    t: np.ndarray,
    y: np.ndarray,
    families: list[str] | tuple[str, ...],
    t_origin: str | None = None,
) -> list[FitResult]:
    """Fit every family and rank ascending by MAPE.

    Results whose MAPE lies within ``MAPE_TIE_WINDOW`` of the best remaining
    one form a tie group ordered by parameter count, then family name; the
    ranking is therefore invariant to the input order of ``families``.
    """
    if not families:
        raise FitError("at least one candidate family is required")
    results = [fit_points(t, y, fam, t_origin=t_origin) for fam in families]
    results.sort(key=lambda r: r.mape)
    ranked: list[FitResult] = []
    while results:
        floor = results[0].mape
        group = [r for r in results if r.mape - floor < MAPE_TIE_WINDOW]
        group.sort(key=lambda r: (len(r.model.params), r.model.family))
        ranked.extend(group)
        results = [r for r in results if r.mape - floor >= MAPE_TIE_WINDOW]
    return ranked


def select(series: TimeSeries, families: list[str] | tuple[str, ...]) -> list[FitResult]:
    return select_points(series.t, series.y, families, t_origin=series.origin)


def forecast(fit_result: FitResult, until: str, label: str = "") -> TimeSeries:
    """Extrapolate a fitted model month by month through ``until``.

    The returned series starts the month after the fitted data ends and is
    continuous with the fitted curve (same model, consecutive indices).
    """
    model = fit_result.model
    if model.t_origin is None:
        raise ValueError("fitted model has no t_origin; cannot forecast by calendar month")
    last_t = int(round(float(fit_result.t.max())))
    end_t = month_index(model.t_origin, until)
    if end_t <= last_t:
        raise ValueError(f"until={until} does not extend past the fitted data")
    tt = np.arange(last_t + 1, end_t + 1, dtype=float)
    values = np.asarray(model.evaluate(tt), dtype=float)
    return TimeSeries(
        origin=add_months(model.t_origin, last_t),
        values=tuple(values),
        label=label or f"forecast:{model.family}",
    )


@dataclass
class SegmentSplit:
    """Best two-regime split of a series (early family, then late family)."""

    break_index: int  # month index of the last early-segment point
    break_month: str
    early_fit: FitResult
    late_fit: FitResult
    contrast: float
    low_contrast: bool

    def to_json(self) -> dict:
        return {
            "break_index": self.break_index,
            "break_month": self.break_month,
            "contrast": self.contrast,
            "low_contrast": self.low_contrast,
            "early_fit": self.early_fit.to_json(),
            "late_fit": self.late_fit.to_json(),
        }


def segment_break(series: TimeSeries, early_family: str, late_family: str) -> SegmentSplit:
    """Exhaustively locate the break minimizing combined squared error.

    Every admissible split point is scanned with a cheap profile fit on a
    ``SCAN_GRID_SIZE``-point grid (the series are at most a few hundred
    months, so the O(n^2) scan is trivial); the winning segments are then
    refitted at full precision, on the ``GRID_SIZE``-point grid.  A split
    is flagged ``low_contrast`` when a single-family fit explains the
    series essentially as well as the best split.
    """
    n = len(series)
    if n < 12:
        raise FitError("segment detection needs at least 12 points")
    e_spec, l_spec = family_spec(early_family), family_spec(late_family)
    min_early = max(MIN_SEGMENT, e_spec.arity + 2)
    min_late = max(MIN_SEGMENT, l_spec.arity + 2)
    if min_early + min_late > n:
        raise FitError("series too short for the requested segment sizes")

    t, y = series.t, series.y
    best: tuple[float, int] | None = None
    for b in range(min_early, n - min_late + 1):
        sse = (
            fit_points(t[:b], y[:b], early_family, _grid_size=SCAN_GRID_SIZE).sse
            + fit_points(t[b:], y[b:], late_family, _grid_size=SCAN_GRID_SIZE).sse
        )
        if best is None or sse < best[0]:
            best = (sse, b)
    assert best is not None
    _, b = best
    early = fit_points(t[:b], y[:b], early_family, t_origin=series.origin)
    late = fit_points(t[b:], y[b:], late_family, t_origin=series.origin)
    split_sse = early.sse + late.sse

    single_sse = min(
        fit_points(t, y, early_family, _grid_size=SCAN_GRID_SIZE).sse,
        fit_points(t, y, late_family, _grid_size=SCAN_GRID_SIZE).sse,
    )
    scale = float(y @ y)
    if single_sse <= 1e-16 * scale:
        contrast, low = 0.0, True
    else:
        contrast = 1.0 - split_sse / single_sse
        low = contrast < 0.5
    return SegmentSplit(
        break_index=b,
        break_month=series.month_at(b),
        early_fit=early,
        late_fit=late,
        contrast=contrast,
        low_contrast=low,
    )


def ratio_series(num: TimeSeries, den: TimeSeries) -> TimeSeries:
    """Pointwise ratio of two aligned series (e.g. edits per article)."""
    if num.origin != den.origin:
        raise ValueError(f"origins differ: {num.origin} vs {den.origin}")
    if len(num) != len(den):
        raise ValueError(f"lengths differ: {len(num)} vs {len(den)}")
    d = den.y
    if np.any(d <= 0):
        raise ValueError("denominator series must be strictly positive")
    label = f"{num.label}/{den.label}" if num.label or den.label else ""
    return TimeSeries(origin=num.origin, values=tuple(num.y / d), label=label)
