"""Minimization of the quadratic moment objective over the probability simplex.

The objective Q(w) = (b - A w)' V (b - A w) is a convex quadratic, so a
monotone accelerated projected-gradient method with exact Euclidean simplex
projection is certifiably optimal and needs no external solver. The step size
is 1/L, with L a fixed 5% above 2 * lambda_max(A'VA), the gradient's exact
Lipschitz constant (Beck & Teboulle, 2009), so no step needs backtracking.

Every system reaches the solver as a ``MomentSystem``: the moment rows of the
density-matching fits, or the least-squares rows of the baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfigError,
    DimensionMismatchError,
    MomentOverflowError,
    SingularGramError,
)
from .moments import MomentSystem
from .panel import PanelData

__all__ = [
    "WeightVector",
    "SolveDiagnostics",
    "SolverOptions",
    "project_simplex",
    "solve_simplex_qp",
    "ls_unconstrained",
]


@dataclass(frozen=True)
class WeightVector:
    """A point on the simplex, with an optional intercept for demeaned fits.

    ``simplex=False`` skips the feasibility checks; only the unconstrained
    least-squares fit uses that escape hatch.
    """

    weights: np.ndarray
    intercept: float | None = None
    simplex: bool = True

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] < 1:
            raise DimensionMismatchError("weights must be a non-empty 1-D vector")
        if self.simplex:
            # NaN passes both comparisons below, so non-finite entries go first
            if not np.isfinite(w).all():
                raise DimensionMismatchError("weights must be finite")
            if w.min() < -1e-12:
                raise DimensionMismatchError(
                    f"weights must be nonnegative, min entry {w.min():.3e}"
                )
            w = np.maximum(w, 0.0)
            if abs(w.sum() - 1.0) > 1e-9:
                raise DimensionMismatchError(
                    f"weights must sum to 1, got {w.sum():.12f}"
                )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.shape[0]

    def predict(self, untreated: np.ndarray) -> np.ndarray:
        """The weighted series ``weights @ untreated``, plus the intercept if any."""
        series = self.weights @ untreated
        if self.intercept is not None:
            series = series + self.intercept
        return series


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    final_objective: float
    projected_gradient_norm: float
    rank_estimate: int
    converged: bool
    non_unique: bool = False


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule of the simplex solver: a finite ``tol >= 0`` and ``max_iter >= 1``."""

    tol: float = 1e-10
    max_iter: int = 100_000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise BadConfigError(f"solver tol must be finite and >= 0, got {self.tol}")
        if self.max_iter < 1:
            raise BadConfigError(f"solver max_iter must be >= 1, got {self.max_iter}")


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based, exact).

    The output has nonnegative entries and sums to 1.0 within one unit in the
    last place: the sum is 1.0, or one of its two neighbouring doubles
    (``abs(sum - 1) <= 2**-52``). A feasible input (nonnegative, summing to
    exactly 1.0) is returned unchanged, so an output that sums to exactly
    1.0 projects to itself bit for bit. A nonnegative input that misses 1.0
    by an ulp moves by at most ``2**-51`` per entry, so such an output moves
    no further when projected again. Near-simplex inputs miss most often:
    about 0.8% of N(0, 0.1^2) vectors of 2 to 50 entries.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatchError("projection input must be a non-empty 1-D vector")
    return _project(v)


def _project(v: np.ndarray) -> np.ndarray:
    """``project_simplex`` on a non-empty 1-D float vector.

    The solver calls this once or more per iteration on vectors of at most a
    few dozen entries, where numpy's per-call cost dwarfs the arithmetic, so
    the threshold search runs on a Python list. It performs the same
    floating-point operations in the same order as the array form
    ``cumsum(sort(v)[::-1]) - 1.0``: the cumulative sum adds left to right.
    """
    total = v.sum()
    if not math.isfinite(total) and not np.isfinite(v).all():
        raise DimensionMismatchError("projection input must be finite")
    if total == 1.0 and v.min() >= 0.0:
        return v.copy()
    cs = 0.0
    cssv = []
    rho = 0
    # every k with u_k > cssv_k / k counts, not only a leading run of them
    for k, u_k in enumerate(sorted(v.tolist(), reverse=True), 1):
        cs += u_k
        c = cs - 1.0
        cssv.append(c)
        if u_k - c / k > 0:
            rho += 1
    # numpy division: rho == 0 (entries beyond about 2**53) gives +-inf or
    # nan with a warning, as the array form did, not ZeroDivisionError
    theta = np.float64(cssv[rho - 1]) / rho
    w = v - theta
    np.maximum(w, 0.0, out=w)
    # absorb the residual summation error into the largest entries that can
    # take it; w.sum() stays numpy (pairwise from 8 entries), which defines
    # that sum. A subtraction can round so that the re-summed total misses
    # 1.0 again, and once every entry has been tried the loop stops one ulp
    # away: the result sums to 1.0 within an ulp, not always bitwise
    excess = w.sum() - 1.0
    if excess != 0.0:
        for i in np.argsort(w)[::-1]:
            if w[i] - excess >= 0.0:
                w[i] -= excess
                excess = w.sum() - 1.0
                if excess == 0.0:
                    break
    # near the simplex theta is a few ulps over rho: the shift can round many
    # entries the same way and the fix-up then piles their error on one
    # entry, so an input within an ulp of 1.0 is the closer answer
    if abs(total - 1.0) <= 2.0**-52 and v.min() >= 0.0 and np.abs(w - v).max() > 2.0**-51:
        return v.copy()
    return w


class _Quadratic:
    """Residual-form evaluation of Q(w) = (b - A w)' V (b - A w)."""

    def __init__(self, system: MomentSystem, v: np.ndarray | None):
        self.a = system.a_matrix
        self.b = system.b_vector
        if v is not None:
            v = np.asarray(v, dtype=float)
            if v.shape != (self.a.shape[0], self.a.shape[0]):
                raise DimensionMismatchError(
                    f"V has shape {v.shape}, expected {(self.a.shape[0],) * 2}"
                )
        self.v = v

    def _vdot(self, r: np.ndarray) -> np.ndarray:
        return r if self.v is None else self.v @ r

    def value(self, w: np.ndarray) -> float:
        r = self.b - self.a @ w
        return float(r @ self._vdot(r))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return -2.0 * (self.a.T @ self._vdot(self.b - self.a @ w))

    def lipschitz(self) -> float:
        """2 * lambda_max(A'VA), the Lipschitz constant of the gradient.

        Raises MomentOverflowError when A'VA is not finite, or its top
        eigenvalue is 0 for a nonzero A: A'VA left the double range.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            h = self.a.T @ self._vdot(self.a)
        lam = float(np.linalg.eigvalsh(h)[-1]) if np.isfinite(h).all() else 0.0
        if lam == 0.0 and self.a.any():
            raise MomentOverflowError(
                "the curvature of a nonzero system is 0 or not finite; "
                "rescale the outcomes"
            )
        return 2.0 * lam


def _polish(q: _Quadratic, w: np.ndarray, f_w: float, lip: float, tol: float):
    """Exact equality-constrained solve on the current support.

    Near the optimum the projected-gradient iterates identify the active
    face; solving the face's KKT system then lands on the exact minimizer in
    one step. The candidate is accepted only if it stays on the simplex,
    does not increase the objective, and certifies first-order optimality.
    Callers only invoke this when the minimizer is unique (full-rank
    systems), so the deterministic tie-break on flat faces is untouched.
    """
    support = w > 0.0
    k = int(support.sum())
    if k == 0:
        return None
    a_s = q.a[:, support]
    va_s = a_s if q.v is None else q.v @ a_s
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * (a_s.T @ va_s)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * (va_s.T @ q.b), [1.0]])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    candidate = np.zeros_like(w)
    candidate[support] = sol[:k]
    if candidate.min() < -1e-9 or abs(candidate.sum() - 1.0) > 1e-6:
        return None
    candidate = _project(candidate)
    f_c = q.value(candidate)
    if f_c > f_w + 1e-12 * max(f_w, 1.0):
        return None
    pg = float(np.abs(candidate - _project(candidate - q.gradient(candidate) / lip)).max())
    if pg > tol:
        return None
    return candidate, f_c, pg


def solve_simplex_qp(
    system: MomentSystem,
    v: np.ndarray | None = None,
    opts: SolverOptions = SolverOptions(),
) -> tuple[WeightVector, SolveDiagnostics]:
    """Minimize (b - A w)' V (b - A w) over the simplex.

    Deterministic: fixed uniform start, fixed iteration schedule, no
    randomness. When A is numerically rank-deficient the minimizer may be a
    face of the simplex; the limit from the uniform start is returned and
    ``non_unique`` is flagged in the diagnostics (uniqueness needs rank(A) = J).
    """
    q = _Quadratic(system, v)
    n = q.a.shape[1]
    rank = int(np.linalg.matrix_rank(q.a))
    non_unique = 1 < n and rank < n  # one unit is one feasible point
    w = np.full(n, 1.0 / n)
    lip = q.lipschitz() if n > 1 else 0.0
    if lip <= 0.0:
        # one unit, or the zero quadratic: every feasible point is optimal
        return (
            WeightVector(w),
            SolveDiagnostics(
                iterations=0,
                final_objective=q.value(w),
                projected_gradient_norm=0.0,
                rank_estimate=rank,
                converged=True,
                non_unique=non_unique,
            ),
        )
    # a 5% margin, far above eigvalsh's rounding (about 1e-14 relative), so
    # every step keeps the quadratic upper bound; with the step at exactly
    # 1/L the default conformal grid moves by 4e-10 and the README's dmscm
    # fit takes 576 iterations instead of 432
    lip *= 1.05

    f_w = q.value(w)
    y = w
    t = 1.0
    converged = False
    since_restart = 0
    stagnant = 0
    may_polish = not non_unique  # keep the uniform-start tie-break on flat faces
    # the loop's time goes to per-call overhead, not arithmetic, so the
    # residual, gradient and values at y are evaluated inline on local
    # names; A' stays a view of A, since a contiguous copy can change the
    # BLAS summation order
    a, a_t, b, vm = q.a, q.a.T, q.b, q.v
    for iterations in range(1, opts.max_iter + 1):
        r_y = b - a @ y
        grad_y = -2.0 * (a_t @ (r_y if vm is None else vm @ r_y))
        step = _project(y - grad_y / lip)
        d = step - y
        r_step = r_y - a @ d
        f_step = float(r_step @ (r_step if vm is None else vm @ r_step))

        # monotone acceleration: keep the best iterate seen so far; when a
        # step fails to improve and momentum has run a while, restart it
        # (ill-conditioned systems converge far faster with restarts)
        since_restart += 1
        stagnant = 0 if f_step < f_w else stagnant + 1
        if f_step <= f_w:
            w_new, f_new = step, f_step
        else:
            w_new, f_new = w, f_w
        if f_step > f_w and since_restart >= 50:
            y, t = w_new, 1.0
            since_restart = 0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = w_new + (t / t_new) * (step - w_new) + ((t - 1.0) / t_new) * (w_new - w)
            t = t_new
        w, f_w = w_new, f_new

        # the optimality certificate is priced at two extra products, so
        # confirm it periodically, once the iterate stops moving, and on the
        # last iteration, which always tries the polish too
        last = iterations == opts.max_iter
        if last or np.abs(d).max() <= 4.0 * opts.tol or iterations % 16 == 0:
            pg_norm = float(np.abs(w - _project(w - q.gradient(w) / lip)).max())
            if pg_norm <= opts.tol:
                converged = True
                break
            if may_polish and (last or pg_norm <= 100.0 * opts.tol or stagnant >= 300):
                # the active face is very likely final: finish with one
                # exact solve on that face
                polished = _polish(q, w, f_w, lip, opts.tol)
                if polished is not None:
                    w, f_w, pg_norm = polished
                    converged = True
                    break
            if stagnant >= 600:
                break  # no objective progress at float resolution: stalled

    return (
        WeightVector(w),
        SolveDiagnostics(
            iterations=iterations,
            final_objective=max(f_w, 0.0),
            projected_gradient_norm=pg_norm,
            rank_estimate=rank,
            converged=converged,
            non_unique=non_unique,
        ),
    )


def ls_unconstrained(panel: PanelData) -> np.ndarray:
    """Ordinary least squares of treated on untreated pre-period outcomes.

    No intercept and no simplex constraint; this is the estimator whose
    probability limit carries the measurement-error attenuation bias.

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
    x = panel.untreated_outcomes[:, : panel.t0].T  # (T0, J)
    y = panel.treated_outcomes[: panel.t0]
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
