"""Empirical moment systems for density-matching weight estimation.

A moment system stacks, for each configured order g, the pre-period average
of the g-th power of each unit's (optionally rescaled) outcomes: matrix rows
hold the untreated units' averages, the target vector the treated unit's.
Covariate rows, when enabled, hold plain pre-period covariate averages. The
weight-estimation objective of every configured fit is then the quadratic

    Q(w) = ||b - A w||^2.

Outcomes can be divided by the pooled pre-period standard deviation (or the
pre-period max absolute value) before powers are taken; either choice
rescales each moment row by a constant, which keeps high orders inside the
finite double range. A general weighting (b - A w)' V (b - A w) is not a
configuration value: pass V to ``solve_simplex_qp`` directly.

Powers are formed by a running product: one buffer holds the square of the
scaled pre-period outcomes and is multiplied in place by them once per
further order, its row means taken after each step. The same buffer first
holds the squared deviations of the pooled standard deviation. Order 2 equals ``x**2`` bit for
bit; higher orders differ from ``x**g`` by rounding only (per element at most
1 ulp at g = 3, 2 at g = 4 and 5 at g = 10 on normal draws), and each order
costs one multiply pass instead of a ``pow()`` call per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfigError,
    DimensionMismatchError,
    MomentOverflowError,
)
from .panel import PanelData, demean_rows

__all__ = [
    "MomentConfig",
    "MomentSystem",
    "build_system",
    "build_demeaned_system",
    "gmm_objective",
]

SCALING_NONE = "none"
SCALING_POOLED_SD = "pooled_sd"
SCALING_MAX_ABS = "max_abs"
SCALINGS = (SCALING_NONE, SCALING_POOLED_SD, SCALING_MAX_ABS)


@dataclass(frozen=True)
class MomentConfig:
    """Configuration for moment-system construction.

    The fit minimizes ||b - A w||^2 over the built rows; ``scaling`` divides
    the outcomes before powers are taken, a constant rescale of each row.
    """

    g: int = 5
    include_covariates: bool = False
    scaling: str = SCALING_POOLED_SD

    def __post_init__(self):
        if self.g < 1:
            raise BadConfigError(f"g must be >= 1, got {self.g}")
        if self.scaling not in SCALINGS:
            raise BadConfigError(f"unknown scaling {self.scaling!r}")


@dataclass(frozen=True)
class MomentSystem:
    """Stacked empirical moments: rows are orders 1..G then covariates 1..K.

    The empirical moment discrepancy at weights w is ``b_vector - a_matrix @ w``.
    """

    a_matrix: np.ndarray  # shape (G+K, J)
    b_vector: np.ndarray  # shape (G+K,)
    gamma_orders: tuple[int, ...]
    scale: float
    demeaned: bool

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        b = np.asarray(self.b_vector, dtype=float)
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_vector", b)
        object.__setattr__(self, "gamma_orders", tuple(self.gamma_orders))
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"inconsistent system shapes {a.shape} vs {b.shape}"
            )
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise MomentOverflowError(
                "moment system is not finite; enable outcome scaling or lower g"
            )
        if self.scale <= 0:
            raise BadConfigError(f"scale must be positive, got {self.scale}")

    @property
    def n_moments(self) -> int:
        return self.b_vector.shape[0]

    @property
    def n_units(self) -> int:
        return self.a_matrix.shape[1]

    @property
    def n_covariate_rows(self) -> int:
        return self.n_moments - len(self.gamma_orders)

    def discrepancy(self, w: np.ndarray) -> np.ndarray:
        """The empirical moment vector b - A w."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_units,):
            raise DimensionMismatchError(
                f"weights have shape {w.shape}, expected ({self.n_units},)"
            )
        return self.b_vector - self.a_matrix @ w


def _pooled_sd(values: np.ndarray, work: np.ndarray) -> float:
    """``values.std()`` bit for bit, its squared deviations formed in ``work``.

    The same steps as numpy's: the mean as the sum over the count, then the
    sum of the squared deviations, a C-ordered array like ``work``, over
    the count.
    """
    np.subtract(values, values.sum() / values.size, out=work)
    np.multiply(work, work, out=work)
    sd = math.sqrt(work.sum() / values.size)
    return sd if sd > 0 else 1.0


def _scale_for(values: np.ndarray, scaling: str, work: np.ndarray) -> float:
    """The divisor of ``values`` under ``scaling``; ``work`` (same shape) is scratch."""
    if scaling == SCALING_POOLED_SD:
        return _pooled_sd(values, work)
    if scaling == SCALING_MAX_ABS:
        # scaled series lies in [-1, 1], so every power stays bounded: high
        # orders fade smoothly instead of amplifying sampling noise
        m = float(np.abs(values, out=work).max())
        return m if m > 0 else 1.0
    return 1.0


def _assemble(
    outcomes: np.ndarray,
    covariates: np.ndarray | None,
    window: int,
    cfg: MomentConfig,
    demeaned: bool,
) -> MomentSystem:
    series = outcomes
    if demeaned:
        _, series = demean_rows(outcomes, window)
    pre = series[:, :window]
    # one scratch buffer: the pooled-sd deviations, then each power of
    # order 2 and up, then each covariate's scale
    work = np.empty(pre.shape)
    scale = _scale_for(pre, cfg.scaling, work)
    scaled = pre / scale

    orders = tuple(range(1, cfg.g + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        power = scaled
        rows = [power.mean(axis=1)]
        for _ in orders[1:]:
            power = np.multiply(power, scaled, out=work)
            rows.append(power.mean(axis=1))
        if cfg.include_covariates:
            if covariates is None:
                raise BadConfigError(
                    "include_covariates is set but the panel has no covariates"
                )
            for k in range(covariates.shape[2]):
                x_pre = covariates[:, :window, k]
                rows.append(np.mean(x_pre / _scale_for(x_pre, cfg.scaling, work), axis=1))
    stacked = np.array(rows)
    return MomentSystem(
        a_matrix=stacked[:, 1:],
        b_vector=stacked[:, 0],
        gamma_orders=orders,
        scale=scale,
        demeaned=demeaned,
    )


def build_system(
    panel: PanelData, cfg: MomentConfig, window: int | None = None
) -> MomentSystem:
    """Build the raw moment system from pre-period outcomes (and covariates).

    ``window`` overrides the number of leading periods used as the estimation
    sample; it defaults to the panel's pre-period length. Conformal refits
    pass the full span here.
    """
    return _assemble(
        panel.outcomes,
        panel.covariates,
        panel.t0 if window is None else window,
        cfg,
        demeaned=False,
    )


def build_demeaned_system(
    panel: PanelData, cfg: MomentConfig, window: int | None = None
) -> MomentSystem:
    """Build the moment system on outcomes with estimation-window means removed.

    The order-1 row vanishes identically (demeaned series sum to zero over the
    window) and is kept for fidelity to the configured order set; it
    contributes nothing to the objective. Covariate rows stay on the raw
    covariates.
    """
    return _assemble(
        panel.outcomes,
        panel.covariates,
        panel.t0 if window is None else window,
        cfg,
        demeaned=True,
    )


def gmm_objective(system: MomentSystem, v: np.ndarray | None, w) -> float:
    """Evaluate the quadratic moment-matching objective m(w)' V m(w).

    ``v`` of None means the identity weighting. Nonnegative for PSD V.
    """
    weights = np.asarray(getattr(w, "weights", w), dtype=float)
    m = system.discrepancy(weights)
    if v is None:
        return float(m @ m)
    v = np.asarray(v, dtype=float)
    if v.shape != (system.n_moments, system.n_moments):
        raise DimensionMismatchError(
            f"V has shape {v.shape}, expected {(system.n_moments,) * 2}"
        )
    return float(m @ v @ m)
