"""Minimization of the quadratic moment objective over the probability simplex.

The objective (b - A w)' V (b - A w) is folded once into ||b - A w||^2, with
WA and Wb in place of A and b (W'W is V's symmetric part). That convex
quadratic is minimized by monotone accelerated projected gradient with exact
simplex projection (Beck & Teboulle, 2009), stepping 1/L with L a fixed 5%
above 2 * lambda_max(P A'A P), P = I - 11'/J: the gradient's exact Lipschitz
constant along the simplex. Feasible moves sum to zero, so the level that all
columns share never enters the step, the certificate or the walk below.

One exact finish ends a fit: a primal active-set walk (Nocedal & Wright,
2006, Algorithm 16.3) from the current iterate, each step one least-squares
solve on a face, which is scale-free. It runs every 256th iteration, and for
a full-rank fit also once the certificate is within 100 times the tolerance
and on the last iteration. Its point is taken only when it passes the same
certificate with no worse objective and is the unique minimizer: the face's
reduced matrix has full column rank, and every unit off the face has a
gradient above the face's by more than the tolerance. Otherwise APG goes on
as if the walk had not run. This also finishes rank-deficient fits (rank(A)
below J) whose optimum is unique; a fit with a flat optimal face keeps the
limit from the uniform start.

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
)
from .moments import MomentSystem

__all__ = [
    "WeightVector",
    "SolveDiagnostics",
    "SolverOptions",
    "project_simplex",
    "solve_simplex_qp",
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

    def predict(self, untreated: np.ndarray) -> np.ndarray:
        """The weighted series ``weights @ untreated``, plus the intercept if any."""
        series = self.weights @ untreated
        if self.intercept is not None:
            series = series + self.intercept
        return series


@dataclass(frozen=True)
class SolveDiagnostics:
    """How a fit ended.

    - ``iterations``: APG iterations run; 0 when every feasible point is
      optimal (one unit, or the zero quadratic).
    - ``final_objective``: (b - A w)' V (b - A w) at the returned weights.
    - ``projected_gradient_norm``: the certificate, the largest entry of
      w - proj(w - grad / L) at the returned weights (0.0 when no iteration
      ran).
    - ``rank_estimate``: ``matrix_rank`` of the folded A.
    - ``converged``: the certificate held at the iterate (at most ``tol``),
      or the active-set walk certified a unique minimizer, or no iteration
      was needed.
    - ``non_unique``: the folded A has rank below J, so the optimum may be a
      flat face; unless the walk certifies a unique minimizer, the fit keeps
      the limit from the uniform start.

    An OLS fit fills the same fields: no iterations, full rank, and the mean
    squared residual over its window as its objective.
    """

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
    (``abs(sum - 1) <= 2**-52``). Entries below the threshold come out as
    exactly 0.0. A feasible input (nonnegative, summing to
    exactly 1.0) is returned unchanged, so an output that sums to exactly
    1.0 projects to itself bit for bit. A nonnegative input that misses 1.0
    by an ulp moves by at most ``2**-51`` per entry, so such an output moves
    no further when projected again. Near-simplex inputs miss most often:
    about 0.2% of N(0, 0.1^2) vectors of 2 to 50 entries.
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
    The minimum and maximum below are read from lists too: a comparison is
    exact, so they are numpy's values, at a fraction of a ufunc call's cost.
    """
    total = np.add.reduce(v)
    if not math.isfinite(total) and not np.isfinite(v).all():
        raise DimensionMismatchError("projection input must be finite")
    u = sorted(v.tolist(), reverse=True)
    # u[-1] is v's smallest entry
    if total == 1.0 and u[-1] >= 0.0:
        return v.copy()
    cs = 0.0
    cssv = []
    rho = 0
    # every k with u_k > cssv_k / k counts, not only a leading run of them
    for k, u_k in enumerate(u, 1):
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
    # absorb the residual summation error into the support, largest entry
    # first, so the entries the threshold zeroed stay 0.0 (every entry is
    # tried when none is positive, as when rho is 0 above); the sum stays
    # numpy's (pairwise from 8 entries), which defines that sum. A whole
    # excess can move an entry by several of its ulps and the re-summed total
    # then misses 1.0 again, so a second pass steps one entry at a time by
    # one ulp toward the target. Once every entry has been tried the result
    # may still sum to a neighbour of 1.0: within an ulp, not always bitwise
    excess = np.add.reduce(w) - 1.0
    if excess != 0.0:
        # descending, so the positive entries lead; each entry is read once,
        # from a list
        order = w.argsort()[::-1].tolist()
        entries = w.tolist()
        support = order[: len(entries) - entries.count(0.0)] or order
        for i in support:
            if entries[i] - excess >= 0.0:
                w[i] = entries[i] - excess
                excess = np.add.reduce(w) - 1.0
                if excess == 0.0:
                    break
        for i in support:
            if excess == 0.0:
                break
            w[i] = np.nextafter(w[i], -math.inf if excess > 0.0 else math.inf)
            excess = np.add.reduce(w) - 1.0
    # near the simplex theta is a few ulps over rho: the shift can round many
    # entries the same way and the fix-up then piles their error on one
    # entry, so an input within an ulp of 1.0 is the closer answer (the
    # solver's inputs sum to 1.0 within rounding, since the centred gradient
    # sums to zero, so most of them reach this test)
    if (abs(total - 1.0) <= 2.0**-52 and u[-1] >= 0.0
            and max(map(abs, (w - v).tolist())) > 2.0**-51):
        return v.copy()
    return w


def _fold(system: MomentSystem, v: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(WA, Wb) with W'W = (V + V')/2, so ||Wb - WAw||^2 = (b - Aw)'V(b - Aw).

    The one place the solver reads V; None passes A and b through. A V that
    is not finite, or has an eigenvalue below -(``matrix_rank``'s rounding
    tolerance), makes no convex quadratic and raises BadConfigError.
    """
    a, b = system.a_matrix, system.b_vector
    if v is None:
        return a, b
    v = np.asarray(v, dtype=float)
    if v.shape != (a.shape[0], a.shape[0]):
        raise DimensionMismatchError(
            f"V has shape {v.shape}, expected {(a.shape[0],) * 2}"
        )
    if not np.isfinite(v).all():
        raise BadConfigError("V must be finite")
    lam, vecs = np.linalg.eigh(0.5 * (v + v.T))
    if lam[0] < -np.abs(lam).max() * lam.size * np.finfo(float).eps:
        raise BadConfigError(f"V is not positive semidefinite: eigenvalue {lam[0]:.6g}")
    root = np.sqrt(np.maximum(lam, 0.0))[:, None] * vecs.T
    return root @ a, root @ b


def _lipschitz(a: np.ndarray, centred: np.ndarray) -> float:
    """The gradient's Lipschitz constant along the simplex, 2 * lambda_max(Ac'Ac).

    Ac, ``centred``, is A minus its row means. A move between simplex points
    sums to zero, and the projection ignores any constant added to the
    gradient, so the level the columns share is never stepped along: only the
    centred Gram Ac'Ac = P A'A P (P = I - 11'/J) bounds the gradient's change
    over feasible moves. Returns 0.0, the zero quadratic, when Ac is no larger
    than the rounding that centring leaves in A, about (J + 2) eps max|A|
    per entry: every column is then the same column and every feasible
    point is optimal.

    Raises MomentOverflowError when A'A is not finite, or its top
    eigenvalue is below the smallest normal double for a nonzero A: A'A left
    the double range, and a subnormal one has too few digits to step by. The
    centred bound gets the same check, so L/2 stays exact.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = a.T @ a
        h_c = centred.T @ centred
    tiny = np.finfo(float).tiny
    lam = float(np.linalg.eigvalsh(h)[-1]) if np.isfinite(h).all() else 0.0
    if lam < tiny and a.any():
        raise MomentOverflowError(
            "the curvature of a nonzero system is subnormal or not finite; "
            "rescale the outcomes"
        )
    # Ac'Ac's entries are at most trace(A'A), so only a system within a
    # factor J of the double range overflows here
    lam_c = float(np.linalg.eigvalsh(h_c)[-1]) if np.isfinite(h_c).all() else math.nan
    if lam_c <= a.size * ((a.shape[1] + 2) * np.finfo(float).eps) ** 2 * lam:
        return 0.0
    if not lam_c >= tiny:
        raise MomentOverflowError(
            "the curvature along the simplex is subnormal or not finite; "
            "rescale the outcomes"
        )
    return 2.0 * lam_c


def _face_point(a: np.ndarray, b: np.ndarray, support: np.ndarray):
    """The least-squares point on the affine hull of the face ``support``.

    The last support unit's weight is 1 minus the others' (the null-space
    method, Nocedal & Wright, 2006, 16.2), so the solve is scale-free.
    Returns the point, zero off the face, and the face's reduced matrix
    A_rest - a_last; the point is the face's unique minimizer when that
    matrix has full column rank, and its minimum-norm one otherwise.
    """
    rest, last = support[:-1], support[-1]
    a_last = a[:, last]
    reduced = a[:, rest] - a_last[:, None]
    sol = np.linalg.lstsq(reduced, b - a_last, rcond=None)[0]
    point = np.zeros(a.shape[1])
    point[rest] = sol
    point[last] = 1.0 - sol.sum()
    return point, reduced


def _walk(a: np.ndarray, b: np.ndarray, w: np.ndarray, f_w: float, f_start: float,
          half_lip: float, tol: float):
    """A primal active-set walk from ``w`` to a certified unique minimizer, or None.

    Nocedal & Wright (2006), Algorithm 16.3, in residual form: each step
    solves the current face (``_face_point``), then either moves toward that
    point until a weight reaches 0, which leaves the face, or, at the face's
    minimizer, releases the unit off the face with the most negative
    multiplier. The walk makes at most 2J + 2 steps. Its end point is kept
    only when it is the problem's unique minimizer, so that the answer does
    not depend on the path: the face's reduced matrix has full column rank
    (``matrix_rank``'s default tolerance), and every unit off the face has a
    gradient above the face's by more than ``tol`` in step units (strict
    complementarity). The face's weights are then projected onto the simplex
    and the point is kept only when its projected-gradient step is at most
    ``tol`` and its objective is no worse than the iterate's ``f_w`` (up to
    1e-12 of the starting objective).
    """
    x = w.copy()
    face = x > 0.0
    for _ in range(2 * x.shape[0] + 2):
        support = np.flatnonzero(face)
        point, reduced = _face_point(a, b, support)
        d = point - x
        shrinking = support[d[support] < 0.0]
        ratios = x[shrinking] / -d[shrinking]
        if ratios.size and ratios.min() < 1.0:
            # a weight reaches 0 on the way: step to it and leave it off
            k = ratios.argmin()
            x += ratios[k] * d
            x[shrinking[k]] = 0.0
            np.maximum(x, 0.0, out=x)
            face = x > 0.0
            continue
        # a unit the face solve put at exactly 0 is off the face, so its gap
        # is checked too
        x = point
        face = x > 0.0
        # A'r / (L/2) is minus the gradient in step units
        descent = a.T.dot(b - a.dot(x)) / half_lip
        gaps = descent[face].min() - descent
        gaps[face] = math.inf
        i = gaps.argmin()
        if gaps[i] < -tol:
            face[i] = True  # a negative multiplier: release that unit
            continue
        if gaps[i] <= tol or np.linalg.matrix_rank(reduced) < support.shape[0] - 1:
            return None
        # only the face's weights are projected, so every unit off the face
        # stays at 0.0 when they miss 1.0 by an ulp
        x[~face] = 0.0
        x[face] = _project(x[face])
        r = b - a.dot(x)
        f_x = r.dot(r)
        stepped = a.T.dot(r)
        stepped /= half_lip
        stepped += x
        pg = max(map(abs, (x - _project(stepped)).tolist()))
        if f_x > f_w + 1e-12 * f_start or pg > tol:
            return None
        return x, f_x, pg
    return None


def solve_simplex_qp(
    system: MomentSystem,
    v: np.ndarray | None = None,
    opts: SolverOptions = SolverOptions(),
) -> tuple[WeightVector, SolveDiagnostics]:
    """Minimize (b - A w)' V (b - A w) over the simplex.

    Deterministic: fixed uniform start, fixed iteration schedule, no
    randomness. When WA is numerically rank-deficient (rank below J) the
    minimizer may be a face of the simplex; the limit from the uniform start
    is returned and ``non_unique`` is flagged in the diagnostics.
    """
    a, b = _fold(system, v)
    n = a.shape[1]
    rank = int(np.linalg.matrix_rank(a))
    non_unique = 1 < n and rank < n  # one unit is one feasible point
    w = np.full(n, 1.0 / n)
    # on the simplex A w = Ac w + m, with Ac = A - m1' and m A's row means,
    # so the level the columns share moves into b: the residual, the
    # gradient and the objective are then formed at the scale of feasible
    # moves, and an offset common to every column and to b leaves the fit
    # as it is, up to the rounding of the centring. A mean that overflows
    # comes with an A'A that does, which _lipschitz reports
    with np.errstate(over="ignore", invalid="ignore"):
        level = a.mean(axis=1)
        centred = a - level[:, None]
    lip = _lipschitz(a, centred) if n > 1 else 0.0
    a, b = centred, b - level
    r = b - a.dot(w)
    f_w = r.dot(r)
    # one unit, or the zero quadratic: every feasible point is optimal
    converged = lip <= 0.0
    iterations, pg_norm = 0, 0.0
    # a 5% margin, far above eigvalsh's rounding (about 1e-14 relative), so
    # every step keeps the quadratic upper bound; on the centred bound a step
    # at exactly 1/L would take the README's dmscm fit from 512 iterations to
    # 272 and move the default conformal grid by 1.3e-11
    lip *= 1.05
    # the gradient is -2 A'r, so a 1/L step from y is y + A'r / (L/2), the
    # same real quotient and so the same double: L is at least 2.1 times the
    # smallest normal double (_lipschitz), so L/2 is exact
    half_lip = 0.5 * lip

    f_start = f_w
    y = w
    t = 1.0
    since_restart = 0
    stagnant = 0
    checked = None  # the iterate whose certificate pg_norm holds
    tol, max_iter = opts.tol, opts.max_iter
    still = 4.0 * tol
    # the loop's time goes to per-call overhead, not arithmetic, so the
    # residual, gradient and values at y are evaluated inline, and each form
    # below is the cheapest call for the same double:
    # - A' stays a view of A, since a contiguous copy can change the BLAS
    #   summation order;
    # - .dot calls the same BLAS gemv and ddot as @, without the matmul
    #   dispatch;
    # - y + g / (L/2) is formed as (g / (L/2)) + y in place, and a momentum
    #   update as c (x - w) + x: IEEE addition and multiplication commute;
    # - a maximum of |entries| is read from a list: every comparison is
    #   exact, so it is numpy's maximum without a ufunc call
    a_t = a.T
    for iterations in range(1, 0 if converged else max_iter + 1):
        r_y = b - a.dot(y)
        stepped = a_t.dot(r_y)
        stepped /= half_lip
        stepped += y
        step = _project(stepped)
        d = step - y
        r_step = r_y - a.dot(d)
        f_step = r_step.dot(r_step)

        # monotone acceleration: keep the best iterate seen so far; when a
        # step fails to improve and momentum has run a while, restart it
        # (ill-conditioned systems converge far faster with restarts)
        since_restart += 1
        stagnant = 0 if f_step < f_w else stagnant + 1
        accepted = f_step <= f_w
        if not accepted and since_restart >= 50:
            y, t = w, 1.0
            since_restart = 0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            # w_new + (t / t_new)(step - w_new) + ((t - 1) / t_new)(w_new - w)
            # with w_new the step or w: one difference is exactly +0.0, and
            # adding +0.0 moves no entry, since no iterate holds a -0.0 (the
            # projection makes none, and x - x rounds to +0.0)
            y = step - w
            if accepted:
                y *= (t - 1.0) / t_new
                y += step
            else:
                y *= t / t_new
                y += w
            t = t_new
        if accepted:
            w, f_w = step, f_step

        # the optimality certificate is priced at two extra products, so
        # confirm it periodically, once the iterate stops moving, and on the
        # last iteration; an iterate that has not changed since the last
        # check keeps its certificate
        last = iterations == max_iter
        if last or iterations % 16 == 0 or max(map(abs, d.tolist())) <= still:
            if w is not checked:
                stepped = a_t.dot(b - a.dot(w))
                stepped /= half_lip
                stepped += w
                pg_norm = max(map(abs, (w - _project(stepped)).tolist()))
                checked = w
            if pg_norm <= tol:
                converged = True
                break
            # a slow fit, or a full-rank one near its optimum or at its last
            # iteration: walk to the exact minimizer, if it is unique
            near = last or pg_norm <= 100.0 * tol
            if iterations % 256 == 0 or (near and not non_unique):
                walked = _walk(a, b, w, f_w, f_start, half_lip, tol)
                if walked is not None:
                    w, f_w, pg_norm = walked
                    converged = True
                    break
            if stagnant >= 600:
                break  # no objective progress at float resolution: stalled

    return (
        WeightVector(w),
        SolveDiagnostics(
            iterations=iterations,
            final_objective=float(f_w),
            projected_gradient_norm=pg_norm,
            rank_estimate=rank,
            converged=converged,
            non_unique=non_unique,
        ),
    )
