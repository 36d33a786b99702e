"""Correctness checks for benchmark ops, by invariants rather than bitwise equality.

A solver may legitimately return different weights on a non-unique optimal
face, so fits are checked against properties every correct answer has:

- the weights lie on the simplex;
- the ``non_unique`` flag agrees with rank(A) < J;
- on full-rank fits the weights match the reference solution below, within
  what the solver's optimality certificate guarantees at the fit's
  conditioning, and the objective is no worse than the reference's;
- on non-unique fits the objective, recomputed with the public
  ``gmm_objective``, matches the reference objective.

The reference is computed here, independently of the program, by a primal
active-set method on the J x J Gram form (Nocedal & Wright, Algorithm 16.3).
Every check returns a list of failure messages; an empty list is a pass.

A fit whose diagnostics say ``converged=False`` is not failed by that flag
alone: the solver's stall exit (no objective progress at float resolution)
can return an optimal point whose projected-gradient certificate is just
above its tolerance. Such a fit fails only if the reference disagrees with
it; otherwise it is reported as a note and counted in
``solver.converged_frac``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from synthctl.moments import MomentSystem, gmm_objective

# weights of a well-conditioned full-rank fit may differ from the reference
# by this much; see weight_tolerance for ill-conditioned ones
WEIGHT_TOL = 1e-7
# the solver's certificate: projected-gradient step at most this (SolverOptions.tol)
SOLVER_TOL = 1e-10
# objectives may differ by this share of the problem's scale (b'Vb + max diag H)
OBJECTIVE_RTOL = 1e-9
# simplex feasibility tolerance, matching WeightVector's own checks
SIMPLEX_TOL = 1e-9


def gram_form(a: np.ndarray, b: np.ndarray, v: np.ndarray | None):
    """H = A'VA, c = A'Vb and b'Vb for Q(w) = b'Vb - 2c'w + w'Hw."""
    vb = b if v is None else v @ b
    va = a if v is None else v @ a
    return a.T @ va, a.T @ vb, float(b @ vb)


def weight_tolerance(h: np.ndarray) -> float:
    """How far from the exact minimizer a full-rank fit's weights may lie.

    The solver stops once its projected-gradient step, ||w - P(w - grad/L)||
    in the max norm, is at most SOLVER_TOL. For a strongly convex quadratic
    that bounds the distance to the minimizer by 2 cond(H) sqrt(J)
    SOLVER_TOL in the 2-norm, so an ill-conditioned fit that meets the
    certificate can differ from the exact weights by more than WEIGHT_TOL.
    """
    eig = np.linalg.eigvalsh(h)
    cond = float(eig[-1] / max(eig[0], 1e-300))
    return max(WEIGHT_TOL, 2.0 * cond * math.sqrt(h.shape[0]) * SOLVER_TOL)


def reference_solve(h: np.ndarray, c: np.ndarray, ridge: float) -> np.ndarray:
    """Minimize w'(H + ridge I)w - 2c'w over the simplex by a primal active set.

    ``ridge`` > 0 makes the problem strictly convex when H is singular; the
    objective then moves by at most ``ridge`` because ||w||^2 <= 1 on the
    simplex.
    """
    j = c.shape[0]
    g_mat = 2.0 * (h + ridge * np.eye(j))
    g_lin = -2.0 * c
    x = np.full(j, 1.0 / j)
    fixed = np.zeros(j, dtype=bool)  # working set: coordinates held at 0
    scale = max(float(np.abs(g_mat).max()), float(np.abs(g_lin).max()), 1e-300)
    for _ in range(50 * j + 100):
        free = ~fixed
        k = int(free.sum())
        # minimize over the current face: G_FF p + nu 1 = -grad_F, 1'p = 0
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = g_mat[np.ix_(free, free)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([-(g_mat @ x + g_lin)[free], [0.0]])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        p = np.zeros(j)
        p[free] = sol[:k]
        shrinking = free & (p < 0.0)
        steps = -x[shrinking] / p[shrinking]
        if steps.size and steps.min() < 1.0:
            # a bound blocks the step: move to it and hold that coordinate at 0
            block = np.flatnonzero(shrinking)[int(np.argmin(steps))]
            x = np.maximum(x + steps.min() * p, 0.0)
            x[block] = 0.0
            fixed[block] = True
            x /= x.sum()
            continue
        # face minimizer reached: release the most negative bound multiplier
        x = np.maximum(x + p, 0.0)
        x /= x.sum()
        mult = g_mat @ x + g_lin + sol[k]
        mult[free] = np.inf
        i = int(np.argmin(mult))
        if mult[i] >= -1e-12 * scale:
            return x
        fixed[i] = False
    raise RuntimeError("reference active-set solve did not terminate")


def check_solve(system, v, weights, diag) -> tuple[list[str], list[str]]:
    """Check one captured ``solve_simplex_qp`` call; returns (errors, notes)."""
    errors, notes = [], []
    a = np.asarray(system.a_matrix, dtype=float)
    b = np.asarray(system.b_vector, dtype=float)
    w = np.asarray(weights.weights, dtype=float)
    j = a.shape[1]
    if w.shape != (j,) or not np.isfinite(w).all():
        return [f"weights have shape {w.shape}, expected ({j},)"], notes
    if w.min() < -SIMPLEX_TOL or abs(w.sum() - 1.0) > SIMPLEX_TOL:
        errors.append(f"weights off the simplex (min {w.min():.3e}, sum {w.sum():.15f})")
    if not diag.converged:
        notes.append(f"converged=False after {diag.iterations} iterations "
                     f"(projected gradient {diag.projected_gradient_norm:.3e})")
    non_unique = int(np.linalg.matrix_rank(a)) < j
    if bool(diag.non_unique) != non_unique:
        errors.append(f"non_unique flag {diag.non_unique} but rank(A) < J is {non_unique}")

    h, c, bvb = gram_form(a, b, v)
    scale = max(bvb, float(np.diag(h).max()), 1e-300)
    ridge = 1e-12 * scale if non_unique else 0.0
    w_ref = reference_solve(h, c, ridge)
    if not isinstance(system, MomentSystem):
        system = MomentSystem(a_matrix=a, b_vector=b, gamma_orders=(),
                              scale=1.0, demeaned=False)
    q_hat = gmm_objective(system, v, w)
    q_ref = gmm_objective(system, v, w_ref)
    if non_unique:
        if abs(q_hat - q_ref) > OBJECTIVE_RTOL * scale:
            errors.append(f"objective {q_hat:.17g} vs reference {q_ref:.17g} "
                          f"(scale {scale:.3g}) on a non-unique fit")
    else:
        gap = float(np.abs(w - w_ref).max())
        tol = weight_tolerance(h)
        if gap > tol:
            errors.append(f"weights differ from the reference by {gap:.3e} "
                          f"(tolerance {tol:.3e}) on a full-rank fit")
        if q_hat - q_ref > OBJECTIVE_RTOL * scale:
            errors.append(f"objective {q_hat:.17g} above reference {q_ref:.17g} "
                          f"(scale {scale:.3g}) on a full-rank fit")
    if errors:
        errors.extend(notes)
    return errors, notes


def validate_json(path: Path, validator) -> tuple[dict | None, list[str]]:
    """Load a JSON output and validate it with its shipped schema's validator."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: unreadable JSON ({exc})"]
    errors = [f"{path.name}: {e.message}" for e in validator.iter_errors(payload)]
    return payload, errors


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_conformal(report: dict, curve_rows: list[list[str]], n_periods: int,
                    grid_points: int) -> list[str]:
    """p-values on the {k/T} grid; interval consistent with p-values and level."""
    errors = []
    grid = report["grid"]
    pvals = report["p_values"]
    level = report["level"]
    if len(grid) != grid_points or len(pvals) != grid_points:
        errors.append(f"{len(grid)} grid points and {len(pvals)} p-values, "
                      f"expected {grid_points}")
    if any(b < a for a, b in zip(grid, grid[1:])):
        errors.append("grid is not ascending")
    for p in pvals:
        k = p * n_periods
        if abs(k - round(k)) > 1e-9 or not (1 <= round(k) <= n_periods):
            errors.append(f"p-value {p!r} is not on the k/{n_periods} grid")
            break
    accepted = [a for a, p in zip(grid, pvals) if p > level]
    interval = report["interval"]
    if accepted:
        want = (accepted[0], accepted[-1],
                accepted[0] == grid[0] and len(grid) > 1,
                accepted[-1] == grid[-1] and len(grid) > 1)
    else:
        want = (None, None, False, False)
    got = (interval["lower"], interval["upper"],
           interval["open_lower"], interval["open_upper"])
    if got != want:
        errors.append(f"interval {got} disagrees with p-values at level {level}: {want}")
    curve = [(float(a), float(p)) for a, p in curve_rows]
    if curve != list(zip(grid, pvals)):
        errors.append("p-curve CSV disagrees with the report JSON")
    return errors


def check_quantiles(payload: dict, draws: np.ndarray, l: int) -> list[str]:
    """Quantiles nondecreasing and equal to the empirical quantiles of the draws."""
    errors = []
    qs = payload["quantiles"]
    if any(b < a for a, b in zip(qs, qs[1:])):
        errors.append(f"quantiles decrease: {qs}")
    if payload["l"] != l or draws.shape != (l,):
        errors.append(f"{draws.shape[0]} draws written, L={payload['l']}, expected {l}")
    elif not np.allclose(np.quantile(draws, payload["probs"]), qs, rtol=1e-12, atol=0.0):
        errors.append("quantiles disagree with the written draws")
    return errors


def check_mmd(payload: dict, permutations: int) -> list[str]:
    """MMD p-value in [1/(P+1), 1] and a whole number of (P+1)ths."""
    p = payload["p_value"]
    n = payload["permutations"]
    errors = []
    if n != permutations:
        errors.append(f"{n} permutations, expected {permutations}")
    k = p * (n + 1)
    if not (1.0 / (n + 1) - 1e-12 <= p <= 1.0) or abs(k - round(k)) > 1e-6:
        errors.append(f"MMD p-value {p!r} outside {{k/(P+1)}}, 1 <= k <= P+1")
    if not math.isfinite(payload["mmd2"]):
        errors.append("MMD statistic is not finite")
    return errors
