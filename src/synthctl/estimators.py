"""Synthetic-control fitting procedures and the least-squares bias oracle.

Four simplex methods share one fitting path: the density-matching estimators
(raw and demeaned-with-intercept) solve the moment-matching quadratic, and
the classical baselines (simplex-constrained least squares and its demeaned
variant) solve the pre-period regression quadratic with the same simplex
solver: every simplex fit hands it a ``MomentSystem``, a baseline's holding
no moment orders. Every fit returns the full counterfactual series, the
post-period effect series, and solver diagnostics.

``Method`` holds every per-method decision (simplex weights, moment
matching, demeaning with an intercept); other modules ask its properties.
``fit_method`` returns a full ``FitResult``; conformal refits and the
theorem1 experiment, which read only the weights, call ``estimate_weights``.

Every fit, a conformal refit or a study's included, is reported once to the
listeners registered with ``fit_listener``, whichever of the two made it.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfigError, SingularMatrixError
from .moments import MomentConfig, MomentSystem, build_demeaned_system, build_system
from .panel import SCHEMA_VERSION, PanelData, demean_rows
from .solver import (
    SolveDiagnostics,
    SolverOptions,
    WeightVector,
    ls_unconstrained,
    solve_simplex_qp,
)

__all__ = [
    "Method",
    "FitResult",
    "BiasLimitInput",
    "fit_listener",
    "fit_ols",
    "fit_method",
    "ls_bias_limit",
]


class Method(str, enum.Enum):
    DMSCM = "dmscm"
    D2MSCM = "d2mscm"
    ABADIE = "abadie"
    FP_DEMEANED = "fp_demeaned"
    OLS = "ols"

    @property
    def simplex(self) -> bool:
        """The weights lie on the simplex, so they are mixture probabilities."""
        return self is not Method.OLS

    @property
    def matches_moments(self) -> bool:
        """The fit matches moment orders, so it depends on the number of them."""
        return self in (Method.DMSCM, Method.D2MSCM)

    @property
    def demeaned(self) -> bool:
        """The fit uses a demeaned system and reports an intercept."""
        return self in (Method.D2MSCM, Method.FP_DEMEANED)


@dataclass(frozen=True)
class FitResult:
    method: Method
    weights: WeightVector
    counterfactual: np.ndarray  # length T
    att: np.ndarray  # length T1
    pre_fit_rmse: float
    diagnostics: SolveDiagnostics

    def mean_post_att(self) -> float:
        return float(self.att.mean())

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "method": self.method.value,
            "weights": [float(x) for x in self.weights.weights],
            "intercept": self.weights.intercept,
            "counterfactual": [float(x) for x in self.counterfactual],
            "att": [float(x) for x in self.att],
            "pre_fit_rmse": self.pre_fit_rmse,
            "diagnostics": {
                "iterations": self.diagnostics.iterations,
                "final_objective": self.diagnostics.final_objective,
                "projected_gradient_norm": self.diagnostics.projected_gradient_norm,
                "rank_estimate": self.diagnostics.rank_estimate,
                "converged": self.diagnostics.converged,
                "non_unique": self.diagnostics.non_unique,
            },
        }


# the listeners of the open ``fit_listener`` blocks, innermost last
_listeners: list = []


@contextlib.contextmanager
def fit_listener(listener):
    """Report every fit made inside the block to ``listener``, once.

    ``listener(method, system, weights, diagnostics)`` is called as each fit
    of ``estimate_weights`` or ``fit_ols`` ends, with the objects the fit
    holds: its ``Method``, its ``MomentSystem`` (None for OLS), its
    ``WeightVector`` and its ``SolveDiagnostics``. Nothing is copied, so a
    listener that keeps them must not change them. A fit that raises is not
    reported. The listener is removed when the block exits, by an exception
    too.
    """
    _listeners.append(listener)
    try:
        yield
    finally:
        _listeners.remove(listener)


def _report(method: Method, system: MomentSystem | None, wv: WeightVector,
            diag: SolveDiagnostics) -> None:
    for listener in _listeners:
        listener(method, system, wv, diag)


def estimate_weights(
    panel: PanelData,
    method: Method,
    cfg: MomentConfig,
    opts: SolverOptions = SolverOptions(),
    window: int | None = None,
) -> tuple[WeightVector, SolveDiagnostics]:
    """Estimate SC weights for a method over the given estimation window.

    The window defaults to the panel's pre-period; conformal refits pass the
    full span so the adjusted post-period outcomes enter the fit.
    """
    window = panel.t0 if window is None else window
    method = Method(method)
    if not method.simplex:
        raise BadConfigError(f"method {method.value} has no simplex weights")
    if method.matches_moments:
        build = build_demeaned_system if method.demeaned else build_system
        system = build(panel, cfg, window=window)
    rows = panel.outcomes[:, :window]
    if method.demeaned:  # fp's rows and either intercept's means
        means, rows = demean_rows(rows, window)
    if not method.matches_moments:
        # scale rows by 1/sqrt(window) so the objective is the mean squared error
        rows = rows / math.sqrt(window)
        system = MomentSystem(a_matrix=rows[1:].T, b_vector=rows[0], gamma_orders=(),
                              scale=1.0, demeaned=method.demeaned)
    wv, diag = solve_simplex_qp(system, None, opts)

    if method.demeaned:
        intercept = float(means[0] - wv.weights @ means[1:])
        wv = WeightVector(wv.weights, intercept=intercept)
    _report(method, system, wv, diag)
    return wv, diag


def _result(panel: PanelData, method: Method, wv: WeightVector,
            diag: SolveDiagnostics) -> FitResult:
    counterfactual = wv.predict(panel.untreated_outcomes)
    att = panel.treated_outcomes[panel.t0 :] - counterfactual[panel.t0 :]
    pre_gap = panel.treated_outcomes[: panel.t0] - counterfactual[: panel.t0]
    np.square(pre_gap, out=pre_gap)
    return FitResult(
        method=method,
        weights=wv,
        counterfactual=counterfactual,
        att=att,
        pre_fit_rmse=float(np.sqrt(np.mean(pre_gap))),
        diagnostics=diag,
    )


def fit_method(
    panel: PanelData,
    method: Method,
    cfg: MomentConfig = MomentConfig(),
    opts: SolverOptions = SolverOptions(),
) -> FitResult:
    """Fit any method: OLS by least squares, the others by ``estimate_weights``."""
    method = Method(method)
    if not method.simplex:
        return fit_ols(panel)
    wv, diag = estimate_weights(panel, method, cfg, opts)
    return _result(panel, method, wv, diag)


def fit_ols(panel: PanelData) -> FitResult:
    """Unconstrained least-squares fit (biased under measurement error)."""
    coef = ls_unconstrained(panel)
    wv = WeightVector(coef, simplex=False)
    x = panel.untreated_outcomes[:, : panel.t0].T
    resid = panel.treated_outcomes[: panel.t0] - x @ coef
    diag = SolveDiagnostics(
        iterations=0,
        final_objective=float(np.mean(resid**2)),
        projected_gradient_norm=0.0,
        # ls_unconstrained has already required full column rank
        rank_estimate=panel.n_untreated,
        converged=True,
    )
    _report(Method.OLS, None, wv, diag)
    return _result(panel, Method.OLS, wv, diag)


@dataclass(frozen=True)
class BiasLimitInput:
    """Inputs for the analytic least-squares probability limit.

    ``q_star`` and ``sigma`` may be given as diagonals (1-D) or full square
    matrices; diagonals must be nonnegative. Both are supplied by the caller
    rather than estimated, so no interpretation of the population second
    moments is baked into library code.
    """

    q_star: np.ndarray
    sigma: np.ndarray
    w_star: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_star, dtype=float)
        s = np.asarray(self.sigma, dtype=float)
        w = np.asarray(self.w_star, dtype=float)
        if q.ndim == 1:
            q = np.diag(q)
        if s.ndim == 1:
            s = np.diag(s)
        j = w.shape[0]
        if q.shape != (j, j) or s.shape != (j, j):
            raise SingularMatrixError(
                f"q_star/sigma must be {j}x{j} to match w_star of length {j}"
            )
        if np.diag(q).min() < 0 or np.diag(s).min() < 0:
            raise SingularMatrixError("q_star and sigma diagonals must be nonnegative")
        object.__setattr__(self, "q_star", q)
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "w_star", w)


def ls_bias_limit(inp: BiasLimitInput) -> np.ndarray:
    """Probability limit of the unconstrained least-squares weights.

    Returns (Q* + Sigma)^-1 Q* w*, the attenuated weight vector the
    least-squares estimator converges to under independent measurement noise.
    """
    denom = inp.q_star + inp.sigma
    try:
        return np.linalg.solve(denom, inp.q_star @ inp.w_star)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("Q* + Sigma is singular")
