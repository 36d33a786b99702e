"""Conformal inference for the post-period effect series.

Under the sharp null that the effect equals a candidate vector, the adjusted
post-period outcomes are folded back into the series, the estimator is refit
on the full adjusted span, and the mean absolute residual over the
post-period positions is compared across all cyclic block rotations of the
residual sequence. The p-value is the exact rank of the identity rotation,
so it is always a multiple of 1/T and needs no randomness. Confidence
intervals invert the test over a grid of constant nulls.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadConfigError, DimensionMismatchError
from .estimators import FitResult, Method, estimate_weights
from .moments import MomentConfig
from .panel import SCHEMA_VERSION, PanelData, open_csv
from .solver import SolverOptions

__all__ = [
    "NullSpec",
    "ConformalReport",
    "conformal_p_value",
    "confidence_interval",
    "default_grid",
    "save_p_curve",
]


@dataclass(frozen=True)
class NullSpec:
    """A sharp null for the post-period effects: one constant or one value per period."""

    alpha: object  # float or length-T1 array

    def resolve(self, t1: int) -> np.ndarray:
        arr = np.asarray(self.alpha, dtype=float)
        if arr.ndim == 0:
            arr = np.full(t1, float(arr))
        if arr.shape != (t1,):
            raise DimensionMismatchError(
                f"null has {arr.shape[0]} entries for {t1} post periods"
            )
        if not np.isfinite(arr).all():
            raise BadConfigError("null values must be finite")
        return arr


@dataclass(frozen=True)
class ConformalReport:
    grid: tuple[float, ...]
    p_values: tuple[float, ...]
    lower: float | None
    upper: float | None
    open_lower: bool
    open_upper: bool
    level: float
    estimator: Method

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "grid": list(self.grid),
            "p_values": list(self.p_values),
            "interval": {
                "lower": self.lower,
                "upper": self.upper,
                "open_lower": self.open_lower,
                "open_upper": self.open_upper,
            },
            "level": self.level,
            "estimator": self.estimator.value,
        }


def _rotation_statistics(abs_resid: np.ndarray, t0: int) -> np.ndarray:
    """Mean |residual| over post positions under every cyclic rotation.

    Entry j is the statistic for the rotation t -> t + j (mod T); entry 0 is
    the identity.
    """
    t = abs_resid.shape[0]
    t1 = t - t0
    doubled = np.concatenate([abs_resid, abs_resid])
    # window j holds the post positions t0..T-1 rotated by j; each row sums
    # like the contiguous slice doubled[t0 + j : t + j], bit for bit
    return sliding_window_view(doubled, t1)[t0 : t0 + t].sum(axis=1) / t1


def conformal_p_value(
    panel: PanelData,
    null: NullSpec,
    estimator: Method = Method.DMSCM,
    cfg: MomentConfig = MomentConfig(),
    opts: SolverOptions = SolverOptions(),
) -> float:
    """Exact rank p-value for a sharp null on the post-period effects.

    The returned value is #{rotations with statistic >= identity} / T, over
    all T cyclic rotations including the identity, so it lies on the grid
    {1/T, 2/T, ..., 1}. A method without simplex weights (OLS) is rejected
    with ``BadConfigError``.
    """
    estimator = Method(estimator)
    if not estimator.simplex:
        raise BadConfigError(f"method {estimator.value} has no simplex weights")
    alpha = null.resolve(panel.n_post)
    adjusted = panel.treated_outcomes.copy()
    adjusted[panel.t0 :] -= alpha
    extended = panel.with_treated_outcomes(adjusted)

    wv, _ = estimate_weights(extended, estimator, cfg, opts, window=extended.n_periods)
    residuals = extended.treated_outcomes - wv.predict(extended.untreated_outcomes)

    stats = _rotation_statistics(np.abs(residuals), panel.t0)
    return float(np.count_nonzero(stats >= stats[0])) / panel.n_periods


def default_grid(panel: PanelData, fit: FitResult, points: int = 41) -> np.ndarray:
    """Grid of candidate constant effects around ``fit``'s point estimate.

    ``fit`` is the estimator's fit on ``panel``; the grid reuses it and fits
    nothing. It spans the mean post-period effect plus/minus five pre-period
    residual standard deviations.
    """
    center = fit.mean_post_att()
    pre_resid = (
        panel.treated_outcomes[: panel.t0] - fit.counterfactual[: panel.t0]
    )
    sd = float(pre_resid.std())
    if sd == 0.0:
        sd = max(abs(center), 1.0)
    return np.linspace(center - 5.0 * sd, center + 5.0 * sd, points)


def confidence_interval(
    panel: PanelData,
    grid,
    level: float,
    estimator: Method = Method.DMSCM,
    cfg: MomentConfig = MomentConfig(),
    opts: SolverOptions = SolverOptions(),
) -> ConformalReport:
    """Invert the conformal test over a grid of constant nulls.

    The interval is the smallest closed interval containing every grid point
    with p-value above ``level``. ``open_lower``/``open_upper`` flag an
    acceptance region touching the grid edge, where the user must widen the
    grid. Grid points are evaluated one after another in grid order.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise BadConfigError("grid must be non-empty")
    if np.any(np.diff(grid) < 0):
        raise BadConfigError("grid must be sorted ascending")
    if not (0.0 < level < 1.0):
        raise BadConfigError(f"level must lie in (0, 1), got {level}")

    p_values = [
        conformal_p_value(panel, NullSpec(alpha), estimator, cfg, opts) for alpha in grid
    ]

    accepted = [float(alpha) for alpha, p in zip(grid, p_values) if p > level]
    if accepted:
        lower, upper = accepted[0], accepted[-1]
        open_lower = bool(accepted[0] == grid[0] and grid.size > 1)
        open_upper = bool(accepted[-1] == grid[-1] and grid.size > 1)
    else:
        lower = upper = None
        open_lower = open_upper = False
    return ConformalReport(
        grid=tuple(float(a) for a in grid),
        p_values=tuple(p_values),
        lower=lower,
        upper=upper,
        open_lower=open_lower,
        open_upper=open_upper,
        level=level,
        estimator=Method(estimator),
    )


def save_p_curve(report: ConformalReport, target) -> None:
    """Write the (alpha, p) curve as a two-column CSV for plotting."""
    with open_csv(target, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "p"])
        for alpha, p in zip(report.grid, report.p_values):
            writer.writerow([repr(alpha), repr(p)])
