"""Synthetic-control fitting procedures and the least-squares bias oracle.

Four simplex methods share one fitting path: the density-matching estimators
(raw and demeaned-with-intercept) solve the moment-matching quadratic, and
the classical baselines (simplex-constrained least squares and its demeaned
variant) solve the pre-period regression quadratic with the same simplex
solver: every simplex fit hands it a ``MomentSystem``, a baseline's holding
no moment orders. The fifth, unconstrained least squares (OLS), is solved in
closed form by ``ls_unconstrained``. Every fit returns the full
counterfactual series, the post-period effect series, and solver
diagnostics.

``Method`` holds every per-method decision (simplex weights, moment
matching, demeaning with an intercept); other modules ask its properties.
``estimate_weights`` makes every fit, of any method, and reports it once to
the listeners registered with ``fit_listener``; ``fit_method`` adds the
``FitResult``'s series to it. Conformal refits and the theorem1 experiment,
which read only the weights, call ``estimate_weights`` directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularGramError, SingularMatrixError
from .moments import MomentConfig, MomentSystem, build_demeaned_system, build_system
from .panel import SCHEMA_VERSION, PanelData, demean_rows
from .solver import SolveDiagnostics, SolverOptions, WeightVector, solve_simplex_qp

__all__ = [
    "Method",
    "FitResult",
    "BiasLimitInput",
    "fit_listener",
    "fit_method",
    "ls_unconstrained",
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
            "diagnostics": dataclasses.asdict(self.diagnostics),
        }


# the listeners of the open ``fit_listener`` blocks, innermost last
_listeners: list = []


@contextlib.contextmanager
def fit_listener(listener):
    """Report every fit made inside the block to ``listener``, once.

    ``listener(method, system, weights, diagnostics)`` is called as each fit
    of ``estimate_weights`` ends, with the objects the fit holds: its
    ``Method``, its ``MomentSystem`` (None for OLS), its ``WeightVector``
    and its ``SolveDiagnostics``. Nothing is copied, so a listener that
    keeps them must not change them. A fit that raises is not reported. The
    listener is removed when the block exits, by an exception too.
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
    cfg: MomentConfig = MomentConfig(),
    opts: SolverOptions = SolverOptions(),
    window: int | None = None,
) -> tuple[WeightVector, SolveDiagnostics]:
    """Estimate SC weights for a method over the given estimation window.

    The window defaults to the panel's pre-period; conformal refits pass the
    full span so the adjusted post-period outcomes enter the fit. OLS takes
    ``ls_unconstrained``'s coefficients and hands the listeners no system.
    """
    window = panel.t0 if window is None else window
    method = Method(method)
    rows = panel.outcomes[:, :window]
    if not method.simplex:
        system = None
        wv = WeightVector(ls_unconstrained(panel, window), simplex=False)
        # the objective in one window-length vector, the residual squared in place
        resid = rows[1:].T @ wv.weights
        np.subtract(rows[0], resid, out=resid)
        np.square(resid, out=resid)
        diag = SolveDiagnostics(
            iterations=0,
            final_objective=float(np.mean(resid)),
            projected_gradient_norm=0.0,
            # ls_unconstrained has already required full column rank
            rank_estimate=panel.n_untreated,
            converged=True,
        )
    elif method.matches_moments:
        build = build_demeaned_system if method.demeaned else build_system
        system = build(panel, cfg, window=window)
        if method.demeaned:  # the intercept's means
            means = rows.mean(axis=1)
    else:
        if method.demeaned:  # fp's rows and its intercept's means
            means, rows = demean_rows(rows, window)
        # scale rows by 1/sqrt(window) so the objective is the mean squared error
        rows = rows / math.sqrt(window)
        system = MomentSystem(a_matrix=rows[1:].T, b_vector=rows[0], gamma_orders=(),
                              scale=1.0, demeaned=method.demeaned)
    if method.simplex:
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
    """Fit any method by ``estimate_weights``, with its counterfactual and effects."""
    method = Method(method)
    wv, diag = estimate_weights(panel, method, cfg, opts)
    return _result(panel, method, wv, diag)


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


def ls_unconstrained(panel: PanelData, window: int | None = None) -> np.ndarray:
    """Ordinary least squares of treated on untreated outcomes over T0 periods.

    T0 is the window's length, the pre-period's by default. No intercept and
    no simplex constraint; this is the estimator whose probability limit
    carries the measurement-error attenuation bias.

    Raises SingularGramError when ``np.linalg.matrix_rank`` puts the (T0, J)
    regressors X below full column rank: when X's computed smallest singular
    value is at most tol = sigma_max(X) max(T0, J) eps. That SVD costs several
    times the J x J Gram G = X'X the solve needs anyway, so full rank is
    first certified from G's smallest computed eigenvalue lam:

    - the computed G is X'X + E with |E| <= gamma_T0 |X|'|X| entrywise (dot
      products of length T0, gamma_n = n eps / (1 - n eps)), so
      ||E||_2 <= gamma_T0 ||X||_F^2, and ||X||_F^2 = trace(X'X) equals the
      computed s = trace(G) to within the same factor;
    - ``eigvalsh`` is backward stable: lam is exact for G + F with ||F||_2 of
      order J eps ||G||_2 <= J eps s.

    So by Weyl's inequality sigma_min(X)^2 >= lam - 4 (T0 + J) eps s, where
    the factor 4 covers gamma and the eigensolver's constant. Full rank is
    accepted when that bound still exceeds 16 max(T0, J)^2 eps^2 s >= (4 tol)^2,
    which leaves three tol for the SVD's own rounding of sigma_min, a modest
    multiple of eps sigma_max. Every other input, singular or merely
    ill-conditioned, gets the ``matrix_rank`` decision as before; either way
    the coefficients solve the same Gram.
    """
    window = panel.t0 if window is None else window
    x = panel.untreated_outcomes[:, :window].T  # (T0, J)
    y = panel.treated_outcomes[:window]
    gram = x.T @ x
    t0, j = x.shape
    eps = np.finfo(float).eps
    margin = np.trace(gram) * eps * (4 * (t0 + j) + 16 * max(t0, j) ** 2 * eps)
    certified = np.isfinite(gram).all() and np.linalg.eigvalsh(gram)[0] > margin
    if not certified and np.linalg.matrix_rank(x) < j:
        raise SingularGramError(
            "pre-period Gram matrix of untreated outcomes is singular"
        )
    return np.linalg.solve(gram, x.T @ y)
