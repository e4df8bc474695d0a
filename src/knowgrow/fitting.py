"""Least-squares fitting of growth-law families to monthly time series.

Every family in :mod:`knowgrow.growth` is linear in all but at most one
parameter (a shift inside a logarithm, or an exponential rate).  The fitter
exploits that: it profiles the single nonlinear parameter over a fixed
deterministic grid, solving an exact linear least-squares problem at each
grid point, and refines the best bracket with Brent's bounded
golden-section/parabolic search (:func:`knowgrow._brent.bounded_min`).
Because the linear coefficients are solved exactly for every value of the
nonlinear one, the profile optimum is the joint least-squares fit (variable
projection, Golub & Pereyra 1973).  No randomness is involved, so fits are
exactly reproducible.  :func:`fit_points` fits one family to (month index,
value) points and :func:`select` fits and ranks several.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brent import bounded_min, hits_bound
from .growth import FamilySpec, GrowthModel, family_spec
from .months import add_months, month_index, parse_month

__all__ = [
    "FitError",
    "TimeSeries",
    "FitResult",
    "SegmentSplit",
    "fit_points",
    "select",
    "forecast",
    "segment_break",
]

#: Results whose MAPE differs by less than this are ranked by parsimony.
MAPE_TIE_WINDOW = 1e-4

#: Points of the nonlinear-parameter grid in a full-precision fit.
GRID_SIZE = 120

#: Coarser grid used to score candidate splits in :func:`segment_break`.
SCAN_GRID_SIZE = 36

#: Fewest points on either side of a :func:`segment_break` split.
MIN_SEGMENT = 6

#: Relative slack of the :func:`segment_break` screen: splits scoring within
#: this fraction of the best score are refitted.
SCREEN_SLACK = 0.1

#: Roundoff floor of that screen, as a fraction of ``y @ y``: scores this
#: close to the best are ties, whatever the slack.
_ROUNDOFF = 1e-10


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
    at_bound: bool
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
            "at_bound": self.at_bound,
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
            at_bound=doc.get("at_bound", False),
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
    if spec.shifted:
        base = (spec.arg_threshold or 0.0) - t_min
        lo = base if spec.arg_inclusive else base + 1e-6
        hi = base + 4000.0
    else:  # exponential rate: keep exp(r * t_max) representable
        lo, hi = 1e-4, min(4.0, 600.0 / t_max)
    return lo, hi


def _nl_grid(spec: FamilySpec, lo: float, hi: float, size: int) -> np.ndarray:
    if spec.shifted:
        # lo, then offsets 1e-3 .. hi - lo (about 4000) above it in geometric
        # steps; an exclusive family's lo already sits 1e-6 inside its open domain
        grid = lo + np.concatenate([[0.0], np.geomspace(1e-3, hi - lo, size)])
    else:  # exponential rate, lo = 1e-4 > 0; hi <= lo once t_max >= 6e6
        grid = np.geomspace(lo, hi, size)
    return np.sort(grid)


def _target(spec: FamilySpec, y: np.ndarray) -> np.ndarray:
    """What ``spec`` is fitted to: ``y``, or ``ln y`` for a log-space family."""
    if not np.any(y != 0):
        raise FitError("all-zero series: MAPE scoring undefined")
    if not spec.log_space:
        return y
    if np.any(y <= 0):
        raise FitError(f"family {spec.name!r} is fitted in log space and needs y > 0")
    return np.log(y)


def fit_points(
    t: np.ndarray,
    y: np.ndarray,
    family: str,
    t_origin: str | None = None,
    _grid_size: int = GRID_SIZE,
) -> FitResult:
    """Fit one growth-law family to (month index, value) points.

    ``t`` holds month indices, 1 at ``t_origin`` as in :attr:`TimeSeries.t`,
    and need not be contiguous.  On noiseless data generated by the
    same family the parameters are recovered essentially exactly; the
    ``converged`` flag reports whether the bounded scalar refinement of the
    nonlinear parameter met its tolerance (always ``True`` for families
    without one), and ``at_bound`` whether it ended at an end of its search
    range, where the true optimum may lie beyond (always ``False`` for
    families without one).
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
    target = _target(spec, y)

    converged, at_bound = True, False
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
        xatol = 1e-10 * (1.0 + abs(grid[best]))
        if b_hi > b_lo:
            x, fx, converged = bounded_min(profile, b_lo, b_hi, xatol)
            nl = float(x) if fx <= sses[best] else float(grid[best])
        else:
            nl = float(grid[best])
        # the search spans grid[0]..grid[-1]
        at_bound = hits_bound(nl, grid[0], grid[-1], xatol)
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
        at_bound=at_bound,
        t=t,
        y=y,
    )


def select(
    t: np.ndarray,
    y: np.ndarray,
    families: list[str] | tuple[str, ...],
    t_origin: str | None = None,
) -> list[FitResult]:
    """Fit every family to the points with :func:`fit_points`; rank ascending by MAPE.

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


def forecast(fit_result: FitResult, until: str) -> TimeSeries:
    """Extrapolate a fitted model month by month through ``until``.

    The returned series, labelled ``forecast:<family>``, starts the month
    after the fitted data ends and is continuous with the fitted curve (same
    model, consecutive indices).
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
        label=f"forecast:{model.family}",
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


def _prefix_sse(cols: np.ndarray, y: np.ndarray, lengths: np.ndarray, suffix: bool) -> np.ndarray:
    """Least-squares SSE of y's windows on the leading rows of fixed columns.

    ``cols`` is (grid, n, p) with a ones column last.  The window of length
    m fits ``y[:m]``, or ``y[n - m:]`` when ``suffix``, on ``cols[:, :m]``.
    Its normal equations come from running sums over the rows, and from one
    correlation of y per column for suffix windows; the result is
    (grid, len(lengths)).
    """
    n = len(y)
    cols = cols.copy()
    # every window starts at row 0, so measuring each column and y from its
    # first value keeps the sums small where SSE = y'y - b'X'y cancels
    cols[..., :-1] -= cols[:, :1, :-1]
    y = y - (y[-1] if suffix else y[0])
    gram = np.cumsum(cols[..., :, None] * cols[..., None, :], axis=1)[:, lengths - 1]
    if suffix:
        # np.correlate(y, c, "full")[n - 1 + b] = sum_k y[b + k] c[k]
        lags = 2 * n - 1 - lengths
        xty = np.array([[np.correlate(y, c, "full")[lags] for c in g.T] for g in cols])
        xty = xty.transpose(0, 2, 1)
        yty = np.cumsum(y[::-1] ** 2)[lengths - 1]
    else:
        xty = np.cumsum(cols * y[:, None], axis=1)[:, lengths - 1]
        yty = np.cumsum(y**2)[lengths - 1]
    d = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))  # equilibrate each system
    xty = xty / d
    beta = np.linalg.solve(gram / (d[..., :, None] * d[..., None, :]), xty[..., None])[..., 0]
    return yty - np.einsum("...p,...p->...", xty, beta)


def _split_scores(
    spec: FamilySpec, t: np.ndarray, y: np.ndarray, splits: np.ndarray, late: bool
) -> tuple[np.ndarray, bool]:
    """Screening score of one side of every split, and whether it is refined.

    Split b has the early segment ``t[:b]`` and the late segment ``t[b:]``
    of ``t = 1..n``.  Wherever a side's columns are shared by all splits,
    the score is the SSE that ``fit_points(..., _grid_size=SCAN_GRID_SIZE)``
    reaches at its best grid point, before Brent, and the scores of all
    splits come from :func:`_prefix_sse` in one pass:

    - early side: it starts at t = 1, so its shift grid is the same for
      every split and its columns are prefixes of the columns on ``t``;
    - late side of a polynomial or a shift family: re-indexed from t = 1
      it spans the same space, with the shift grid that ``_nl_bounds``
      anchors at its own ``t_min``, so it is a prefix window too.

    The rest are scored by the per-split ``fit_points`` itself:
    ``sub_exponential``, whose SSE is taken in linear space but fitted on
    ``ln y``; ``exponential``, whose rate cap ``600 / t_max`` moves with
    the split early, and whose late columns are suffixes, not prefixes, of
    one column; ``t_ln_t`` late, which is not shift-invariant; and
    polynomials of degree above 5, whose normal equations lose the digits
    the screen needs.  Those scores are the refined SSE, at most the
    grid-stage one, and are flagged so that it is not computed twice.
    """
    n = len(y)
    # polynomials up to degree 5 (constant, linear, polynomialN)
    poly = spec.nonlinear_index is None and spec.arg_threshold is None and spec.arity <= 6
    shared = (poly or spec.shifted) if late else (poly or spec.arg_threshold is not None)
    if spec.log_space or not shared:
        sides = [(t[b:], y[b:]) if late else (t[:b], y[:b]) for b in splits.tolist()]
        scores = [fit_points(ts, ys, spec.name, _grid_size=SCAN_GRID_SIZE).sse for ts, ys in sides]
        return np.array(scores), True
    if spec.nonlinear_index is None:
        # polynomials in (t - 1) / n: each window starts at 0, scaled to [0, 1)
        cols = spec.basis((t - 1.0) / n if poly else t, None)[None]
    else:
        grid = _nl_grid(spec, *_nl_bounds(spec, t), SCAN_GRID_SIZE)
        cols = np.stack([spec.basis(t, v) for v in grid])
    lengths = n - splits if late else splits
    return _prefix_sse(cols, y, lengths, suffix=late).min(axis=0), False


def segment_break(series: TimeSeries, early_family: str, late_family: str) -> SegmentSplit:
    """Locate the break minimizing combined squared error, in two stages.

    *Screen.*  Every admissible split is scored by the SSE its two
    segments reach at the best point of a ``SCAN_GRID_SIZE``-point profile
    grid, before refinement.  For most families the scores of all splits
    come from running sums and correlations over the whole series (see
    :func:`_split_scores`): O(n) work per grid value for the early side and
    O(n^2) for the late one, about 0.03 s on a 600-month series.  The
    others (``sub_exponential``, ``exponential``, ``t_ln_t`` late and
    polynomials above degree 5) are scored by their refined per-split fit,
    at the cost of the exhaustive scan.

    *Refine.*  Only splits whose score is at most ``1 + SCREEN_SLACK``
    times the best score, plus a roundoff floor, get the per-split profile
    fit of both segments (grid plus bounded Brent); the lowest combined SSE
    wins, the earliest on ties.  On a 600-month series with 0.2 % noise
    that is 6 splits, or 12 fits, instead of about 1180.  The floor keeps
    every split whose score is numerically zero, so on noiseless data the
    winner is still chosen among all exact fits.  If some candidate's
    refined SSE moves from its score by more than the slack, either way,
    the screen's premise fails and every split is refitted, as an
    exhaustive scan would; noiseless data whose profile optimum falls
    between grid points gains that much, and a polynomial refit that loses
    rank (see :func:`fit_points`' raw basis) lands that far above.  The
    risk that remains: a split outside the candidates whose refinement
    gains more than the slack, while no candidate's score moves that much,
    is missed.

    The winning segments are then refitted at full precision, on the
    ``GRID_SIZE``-point grid.  A split is flagged ``low_contrast`` when a
    single-family fit explains the series essentially as well as the best
    split.
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
    # a segment passes fit_points' checks iff its side's shortest segment
    # has a nonzero value and its longest has y > 0 where required
    for spec, shortest, longest in (
        (e_spec, y[:min_early], y[: n - min_late]),
        (l_spec, y[n - min_late :], y[min_early:]),
    ):
        _target(spec, shortest)
        _target(spec, longest)
    splits = np.arange(min_early, n - min_late + 1)
    e_scores, e_refined = _split_scores(e_spec, t, y, splits, late=False)
    l_scores, l_refined = _split_scores(l_spec, t, y, splits, late=True)
    scores = e_scores + l_scores
    scale = float(y @ y)
    floor = _ROUNDOFF * scale
    # roundoff can put an exact fit's score a little below zero
    slack = 1.0 + SCREEN_SLACK
    near = scores <= slack * max(float(scores.min()), 0.0) + floor

    def refit(i: int) -> float:
        b = int(splits[i])
        if e_refined:
            e_sse = e_scores[i]
        else:
            e_sse = fit_points(t[:b], y[:b], early_family, _grid_size=SCAN_GRID_SIZE).sse
        if l_refined:
            l_sse = l_scores[i]
        else:
            l_sse = fit_points(t[b:], y[b:], late_family, _grid_size=SCAN_GRID_SIZE).sse
        return float(e_sse + l_sse)

    refined = np.full(len(splits), np.inf)
    refined[near] = [refit(i) for i in np.flatnonzero(near)]
    got, want = refined[near], scores[near]
    if np.any((slack * got < want - floor) | (got > slack * want + floor)):
        # a refit moved more than the slack from its score, so the screen
        # cannot rule out the other splits: noiseless data whose profile
        # optimum falls between grid points gains that much, and a
        # polynomial segment far from t = 0 on which fit_points' raw basis
        # loses rank lands that far above
        refined[~near] = [refit(i) for i in np.flatnonzero(~near)]
    b = int(splits[np.argmin(refined)])  # the earliest of equal splits
    early = fit_points(t[:b], y[:b], early_family, t_origin=series.origin)
    late = fit_points(t[b:], y[b:], late_family, t_origin=series.origin)
    split_sse = early.sse + late.sse

    single_sse = min(
        fit_points(t, y, early_family, _grid_size=SCAN_GRID_SIZE).sse,
        fit_points(t, y, late_family, _grid_size=SCAN_GRID_SIZE).sse,
    )
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

