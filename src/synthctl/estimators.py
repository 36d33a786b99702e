"""Synthetic-control fitting procedures and the least-squares bias oracle.

Four fitting routines share one surface: the density-matching estimators
(raw and demeaned-with-intercept) solve the moment-matching quadratic, and
the classical baselines (simplex-constrained least squares and its demeaned
variant) solve the pre-period regression quadratic with the same simplex
solver. Every fit returns the full counterfactual series, the post-period
effect series, and solver diagnostics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
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
    "fit_dmscm",
    "fit_d2mscm",
    "fit_abadie",
    "fit_fp_demeaned",
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


@dataclass(frozen=True)
class _LinearSystem:
    """Least-squares rows shaped like a moment system for the shared solver."""

    a_matrix: np.ndarray
    b_vector: np.ndarray


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


def _ls_rows(outcomes: np.ndarray, window: int, demeaned: bool) -> _LinearSystem:
    series = outcomes
    if demeaned:
        _, series = demean_rows(outcomes, window)
    # scale rows by 1/sqrt(window) so the objective is the mean squared error
    rows = series[:, :window] / math.sqrt(window)
    return _LinearSystem(a_matrix=rows[1:].T, b_vector=rows[0])


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
    if method in (Method.DMSCM, Method.D2MSCM):
        if method is Method.DMSCM:
            system: MomentSystem = build_system(panel, cfg, window=window)
        else:
            system = build_demeaned_system(panel, cfg, window=window)
        v = cfg.weighting_matrix(system.n_moments)
        wv, diag = solve_simplex_qp(system, v, opts)
    elif method in (Method.ABADIE, Method.FP_DEMEANED):
        system = _ls_rows(panel.outcomes, window, method is Method.FP_DEMEANED)
        wv, diag = solve_simplex_qp(system, None, opts)
    else:
        raise ValueError(f"no simplex weights for method {method}")

    if method in (Method.D2MSCM, Method.FP_DEMEANED):
        means, _ = demean_rows(panel.outcomes, window)
        intercept = float(means[0] - wv.weights @ means[1:])
        wv = WeightVector(wv.weights, intercept=intercept)
    return wv, diag


def _result(panel: PanelData, method: Method, wv: WeightVector,
            diag: SolveDiagnostics) -> FitResult:
    counterfactual = wv.weights @ panel.untreated_outcomes
    if wv.intercept is not None:
        counterfactual = counterfactual + wv.intercept
    att = panel.treated_outcomes[panel.t0 :] - counterfactual[panel.t0 :]
    pre_gap = panel.treated_outcomes[: panel.t0] - counterfactual[: panel.t0]
    return FitResult(
        method=method,
        weights=wv,
        counterfactual=counterfactual,
        att=att,
        pre_fit_rmse=float(np.sqrt(np.mean(pre_gap**2))),
        diagnostics=diag,
    )


def fit_dmscm(
    panel: PanelData,
    cfg: MomentConfig = MomentConfig(),
    opts: SolverOptions = SolverOptions(),
) -> FitResult:
    """Density-matching fit: moment-matched simplex weights, no intercept."""
    wv, diag = estimate_weights(panel, Method.DMSCM, cfg, opts)
    return _result(panel, Method.DMSCM, wv, diag)


def fit_d2mscm(
    panel: PanelData,
    cfg: MomentConfig = MomentConfig(),
    opts: SolverOptions = SolverOptions(),
) -> FitResult:
    """Demeaned density-matching fit with the mean-gap intercept."""
    wv, diag = estimate_weights(panel, Method.D2MSCM, cfg, opts)
    return _result(panel, Method.D2MSCM, wv, diag)


def fit_abadie(
    panel: PanelData, opts: SolverOptions = SolverOptions()
) -> FitResult:
    """Simplex-constrained least squares on pre-period outcome levels."""
    wv, diag = estimate_weights(panel, Method.ABADIE, MomentConfig(g=1), opts)
    return _result(panel, Method.ABADIE, wv, diag)


def fit_fp_demeaned(
    panel: PanelData, opts: SolverOptions = SolverOptions()
) -> FitResult:
    """Simplex-constrained least squares on demeaned outcomes, with intercept."""
    wv, diag = estimate_weights(panel, Method.FP_DEMEANED, MomentConfig(g=1), opts)
    return _result(panel, Method.FP_DEMEANED, wv, diag)


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
        rank_estimate=int(np.linalg.matrix_rank(x)),
        converged=True,
    )
    return _result(panel, Method.OLS, wv, diag)


_FITTERS = {
    Method.DMSCM: lambda panel, cfg, opts: fit_dmscm(panel, cfg, opts),
    Method.D2MSCM: lambda panel, cfg, opts: fit_d2mscm(panel, cfg, opts),
    Method.ABADIE: lambda panel, cfg, opts: fit_abadie(panel, opts),
    Method.FP_DEMEANED: lambda panel, cfg, opts: fit_fp_demeaned(panel, opts),
    Method.OLS: lambda panel, cfg, opts: fit_ols(panel),
}


def fit_method(
    panel: PanelData,
    method: Method,
    cfg: MomentConfig = MomentConfig(),
    opts: SolverOptions = SolverOptions(),
) -> FitResult:
    """Dispatch a fit by method name."""
    return _FITTERS[Method(method)](panel, cfg, opts)


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
