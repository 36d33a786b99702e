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

The pre-period window is walked in blocks of periods, each of at most
``_BLOCK_ELEMS`` values (2**15, 256 KiB), so a build holds two block-sized
scratch buffers whatever T0 is. One buffer holds a block of scaled
outcomes. The other first holds the pooled standard deviation's squared
deviations (or the max-abs scale's absolute values), then the block's
powers, formed by a running product: the square, multiplied in place by the
scaled block once per further order. Each order's row sums are added block
by block, and the means are the totals over the window. When the window
fits one block, as it does in the figure2 and appendixD studies, in
conformal on their panels up to J = 30 and in every README example, the
build is bit-identical to one pass over whole (J+1) x T0 arrays. Over several blocks the sums, and the pooled standard
deviation, move by rounding only. Order 2 equals ``x**2`` bit for bit;
higher orders differ from ``x**g`` by rounding only (per element at most
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
    The least-squares baselines pass their pre-period rows in this form too,
    with no orders.
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

    def discrepancy(self, w: np.ndarray) -> np.ndarray:
        """The empirical moment vector b - A w."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_units,):
            raise DimensionMismatchError(
                f"weights have shape {w.shape}, expected ({self.n_units},)"
            )
        return self.b_vector - self.a_matrix @ w


# One scratch buffer of the moment build holds at most this many float64
# values (256 KiB): the window is walked in blocks of _BLOCK_ELEMS // rows
# periods, so a build's memory does not grow with T0. Timed at the theorem1
# shape (3 rows by 100,000 periods, g = 4) on a 2-core x86-64 host with a
# 2 MiB L2 cache per core: 2**14 to 2**16 values per buffer built in
# 1.3-2.0 ms, full-window arrays in 2.9-3.7 ms, and 2**12 in 3.6-4.1 ms,
# where the per-block calls dominate.
_BLOCK_ELEMS = 1 << 15


def _blocks(values: np.ndarray, width: int) -> list[np.ndarray]:
    """Views of ``values``'s consecutive column blocks of at most ``width`` columns."""
    return [values[:, a : a + width] for a in range(0, values.shape[1], width)]


def _pooled_sd(blocks: list[np.ndarray], work: np.ndarray) -> float:
    """The standard deviation of all entries of ``blocks``, taken block by block.

    ``work`` holds the squared deviations of one block. For a single block
    ``b`` it is ``b.std()`` bit for bit, the same steps as numpy's: the mean
    as the sum over the count, then the sum of the squared deviations,
    formed in a C-ordered array like ``work``, over the count. Over several
    blocks the two sums add the blocks' own sums, which moves the result by
    rounding only.
    """
    size = sum(b.size for b in blocks)
    mean = sum(b.sum() for b in blocks) / size
    squares = 0.0
    for b in blocks:
        dev = np.subtract(b, mean, out=work[:, : b.shape[1]])
        np.multiply(dev, dev, out=dev)
        squares += dev.sum()
    sd = math.sqrt(squares / size)
    if not math.isfinite(sd):
        raise MomentOverflowError(
            "pooled standard deviation of the outcomes is not finite; "
            "use --scaling max_abs"
        )
    return sd if sd > 0 else 1.0


def _scale_for(blocks: list[np.ndarray], scaling: str, work: np.ndarray) -> float:
    """The divisor of the values in ``blocks`` under ``scaling``; ``work`` is scratch."""
    if scaling == SCALING_POOLED_SD:
        return _pooled_sd(blocks, work)
    if scaling == SCALING_MAX_ABS:
        # scaled series lies in [-1, 1], so every power stays bounded: high
        # orders fade smoothly instead of amplifying sampling noise
        m = max(float(np.abs(b, out=work[:, : b.shape[1]]).max()) for b in blocks)
        return m if m > 0 else 1.0
    return 1.0


def _power_means(
    blocks: list[np.ndarray], scale: float, g: int, scaled: np.ndarray, power: np.ndarray
) -> np.ndarray:
    """Row means of (values / scale)**k for k = 1..g, as a (g, rows) array.

    Each block is scaled into ``scaled`` and its powers formed in ``power``
    by a running product; the blocks' row sums are added in order, and the
    means are their totals over the window.
    """
    sums = None
    for b in blocks:
        x = np.divide(b, scale, out=scaled[:, : b.shape[1]])
        p = power[:, : b.shape[1]]
        part = np.empty((g, b.shape[0]))
        np.add.reduce(x, axis=1, out=part[0])
        for k in range(1, g):
            np.multiply(x if k == 1 else p, x, out=p)
            np.add.reduce(p, axis=1, out=part[k])
        sums = part if sums is None else sums + part
    return sums / sum(b.shape[1] for b in blocks)


def _assemble(
    outcomes: np.ndarray,
    covariates: np.ndarray | None,
    window: int,
    cfg: MomentConfig,
    demeaned: bool,
) -> MomentSystem:
    series = outcomes[:, :window]
    if demeaned:
        _, series = demean_rows(series, window)
    n_rows = series.shape[0]
    width = min(window, max(1, _BLOCK_ELEMS // n_rows))
    # two scratch buffers: each block scaled, and its pooled-sd deviations,
    # absolute values or powers of order 2 and up
    scaled = np.empty((n_rows, width))
    work = np.empty((n_rows, width))
    blocks = _blocks(series, width)
    orders = tuple(range(1, cfg.g + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = _scale_for(blocks, cfg.scaling, work)
        rows = list(_power_means(blocks, scale, cfg.g, scaled, work))
        if cfg.include_covariates:
            if covariates is None:
                raise BadConfigError(
                    "include_covariates is set but the panel has no covariates"
                )
            for k in range(covariates.shape[2]):
                x_blocks = _blocks(covariates[:, :window, k], width)
                x_scale = _scale_for(x_blocks, cfg.scaling, work)
                rows.append(_power_means(x_blocks, x_scale, 1, scaled, work)[0])
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
