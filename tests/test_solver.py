import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthctl.solver as solver

from synthctl.errors import (
    BadConfigError,
    DimensionMismatchError,
    MomentOverflowError,
    SingularGramError,
)
from synthctl.estimators import Method, estimate_weights
from synthctl.moments import MomentConfig, MomentSystem, gmm_objective
from synthctl.panel import PanelData
from synthctl.simlab import figure2_spec, gen_mixture_dgp
from synthctl.solver import (
    SolveDiagnostics,
    SolverOptions,
    WeightVector,
    _fold,
    _lipschitz,
    ls_unconstrained,
    project_simplex,
    solve_simplex_qp,
)


def make_system(a, b):
    a = np.asarray(a, dtype=float)
    return MomentSystem(
        a_matrix=a,
        b_vector=np.asarray(b, dtype=float),
        gamma_orders=tuple(range(1, a.shape[0] + 1)),
        scale=1.0,
        demeaned=False,
    )


def brute_force_projection(v, step=1e-4):
    """Independent grid-search oracle for the two-dimensional projection."""
    grid = np.arange(0.0, 1.0 + step, step)
    points = np.column_stack([grid, 1.0 - grid])
    dist = ((points - v) ** 2).sum(axis=1)
    return points[np.argmin(dist)]


def test_projection_examples():
    np.testing.assert_array_equal(
        project_simplex(np.array([0.2, 0.8])), [0.2, 0.8]
    )
    np.testing.assert_array_equal(
        project_simplex(np.array([1.0, 1.0])), [0.5, 0.5]
    )
    oracle = brute_force_projection(np.array([2.0, 0.0]))
    np.testing.assert_array_equal(oracle, [1.0, 0.0])
    np.testing.assert_array_equal(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(-50, 50, allow_nan=False, allow_infinity=False), min_size=1, max_size=9
    )
)
# the whole excess moved a support entry by several ulps each time, and the
# fix-up then put 2**-53 on both zeroed entries and ended at 1 + 2**-52
@example([0.0] * 6 + [-1.0, -1.0, -0.125])
def test_projection_idempotent_exactly(vals):
    v = np.array(vals)
    once = project_simplex(v)
    twice = project_simplex(once)
    assert np.array_equal(once, twice)
    assert once.min() >= 0.0
    assert once.sum() == 1.0


NEAR_SIMPLEX_SIZES = (2, 5, 9, 10, 20, 50)


def assert_projection_contract(v):
    """project_simplex's documented contract on one input; True if its sum is inexact."""
    once = project_simplex(v)
    twice = project_simplex(once)
    assert once.min() >= 0.0 and twice.min() >= 0.0
    assert abs(once.sum() - 1.0) <= 2.0**-52
    if once.sum() == 1.0:
        assert np.array_equal(once, twice)
    else:
        assert np.abs(twice - once).max() <= 2.0**-51
    return once.sum() != 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(NEAR_SIMPLEX_SIZES))
def test_projection_contract_near_the_simplex(seed, n):
    # N(0, 0.1^2) entries sit near the simplex, where the sum fix-up most
    # often stops one ulp away from 1.0 (about 0.2% of such vectors)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        assert_projection_contract(rng.normal(0.0, 0.1, n))


def test_projection_contract_when_the_shift_rounds_one_way():
    # the ninth draw projects to a vector summing to 1 + 2**-52 whose
    # re-projection shifted 21 entries the same way and moved one by 5.27e-16
    rng = np.random.default_rng(4158)
    for _ in range(20):
        assert_projection_contract(rng.normal(0.0, 0.1, 50))


def test_projection_keeps_uniform_vectors_an_ulp_off():
    # 1/n summed n times misses 1.0 by an ulp for 10 of these sizes; the
    # shift and fix-up moved one entry of each by 6.4e-16 to 1.2e-15
    for n in range(1, 61):
        v = np.full(n, 1.0 / n)
        assert np.abs(project_simplex(v) - v).max() <= 2.0**-51


def test_projection_contract_covers_inexact_sums():
    # the seeded sweep meets the one-ulp case, so the contract above is the
    # one that holds, not a bitwise sum of 1.0
    inexact = 0
    for n in NEAR_SIMPLEX_SIZES:
        rng = np.random.default_rng(n)
        inexact += sum(
            assert_projection_contract(rng.normal(0.0, 0.1, n)) for _ in range(1000)
        )
    assert inexact > 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projection_beats_grid(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(0, 2, 2)
    w = project_simplex(v)
    oracle = brute_force_projection(v)
    assert ((w - v) ** 2).sum() <= ((oracle - v) ** 2).sum() + 1e-12


def reference_clip(v):
    """The reference projection's shifted and clipped vector, before the fix-up."""
    n = v.shape[0]
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(1, n + 1)
    rho = int(np.count_nonzero(u - cssv / ind > 0))
    theta = cssv[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def reference_project_simplex(v):
    """The array-form projection the solver used before its list-based
    threshold search; the current one must match it bit for bit. A
    nonnegative input within an ulp of 1.0 that the shift and fix-up would
    move by more than 2**-51 is kept, as ``project_simplex`` documents."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatchError("projection input must be a non-empty 1-D vector")
    if not np.isfinite(v).all():
        raise DimensionMismatchError("projection input must be finite")
    if v.min() >= 0.0 and v.sum() == 1.0:
        return v.copy()
    w = reference_clip(v)
    # absorb the residual summation error in the support (every entry when
    # none is positive): the whole excess on one entry, largest first, then
    # one ulp on one entry at a time
    order = np.argsort(w)[::-1]
    support = order[w[order] > 0.0] if (w > 0.0).any() else order
    for i in support:
        excess = w.sum() - 1.0
        if excess == 0.0:
            break
        if w[i] - excess >= 0.0:
            w[i] -= excess
    for i in support:
        excess = w.sum() - 1.0
        if excess == 0.0:
            break
        w[i] = np.nextafter(w[i], -np.inf if excess > 0.0 else np.inf)
    if abs(v.sum() - 1.0) <= 2.0**-52 and v.min() >= 0.0 and np.abs(w - v).max() > 2.0**-51:
        return v.copy()
    return w


def projection_inputs():
    # rounding makes u_k > cssv_k / k fail at some k and hold again later;
    # the threshold counts every k where it holds
    yield np.array([0.20596382785127584, -0.7940361721487241, -0.7940361721487241])
    yield np.array([0.5623976772929592, 0.3012921765535601] + [-0.06815507307674035] * 3)
    rng = np.random.default_rng(2008)
    tie_rng = np.random.default_rng(2009)
    for n in range(1, 61):
        for scale in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3):
            for _ in range(3):
                yield rng.normal(0.0, scale, n)
            yield rng.uniform(0.0, scale, n)
            # ties
            yield np.round(rng.normal(0.0, 2.0, n)) * scale
            yield np.full(n, scale)
        one_hot = np.zeros(n)
        one_hot[rng.integers(n)] = 1.0
        yield one_hot
        yield 3.0 * one_hot - 1.0
        # already feasible, and nearly so
        feasible = rng.dirichlet(np.ones(n))
        yield feasible
        yield feasible * (1.0 + 1e-15)
        yield np.full(n, 1.0 / n)
        # tied largest entries among exact zeros: the clipped sum often
        # misses 1.0, and the fix-up then walks equal entries in argsort order
        for _ in range(5):
            levels = np.append(tie_rng.normal(0.0, 1.0, 2), 0.0)
            tied = levels[tie_rng.integers(0, 3, n)]
            tied[tie_rng.choice(n, min(n, 2), replace=False)] = levels.max()
            yield tied


def test_projection_matches_array_reference_bitwise():
    count = tie_fixups = 0
    for v in projection_inputs():
        expected = reference_project_simplex(v)
        got = project_simplex(v)
        assert np.array_equal(got, expected), v
        # the solver's momentum step relies on this: no -0.0 comes out
        # unless one went in
        if not np.signbit(v[v == 0.0]).any():
            assert not np.signbit(got).any(), v
        if v.min() < 0.0 or v.sum() != 1.0:
            clipped = reference_clip(v)
            tie_fixups += bool(clipped.sum() != 1.0 and (clipped == 0.0).any()
                               and (clipped == clipped.max()).sum() > 1)
        count += 1
    assert count == 2 + 60 * (7 * 6 + 5 + 5)
    assert tie_fixups >= 200


@pytest.mark.parametrize(
    "bad", [[np.nan, 0.5], [0.5, np.inf], [-np.inf, 2.0], [np.inf, -np.inf, 1.0]]
)
def test_projection_rejects_non_finite(bad):
    with pytest.raises(DimensionMismatchError):
        reference_project_simplex(np.array(bad))
    with pytest.raises(DimensionMismatchError), np.errstate(invalid="ignore"):
        project_simplex(np.array(bad))


def test_projection_finite_entries_with_overflowing_sum():
    # the sum is infinite although every entry is finite: not rejected
    v = np.array([1e308, 1e308, -3.0])
    with np.errstate(over="ignore"):
        expected = reference_project_simplex(v)
        np.testing.assert_array_equal(project_simplex(v), expected)


def test_golden_solves_bitwise(golden):
    # estimate_weights, and general-V solves, on one figure2 panel
    golden("solves")


def test_solver_exits_bitwise(golden):
    # one solve per way the solver ends
    golden("solver_exits")


def test_solve_population_gaussian_moments():
    # rows are the 2nd and 4th moments of N(0,1) and N(0,4) components and
    # of their even mixture: E[Y^{2k}] = (2k-1)!! sigma^{2k}
    system = make_system([[1.0, 4.0], [3.0, 48.0]], [2.5, 25.5])
    w, diag = solve_simplex_qp(system)
    np.testing.assert_allclose(w.weights, [0.5, 0.5], atol=1e-6)
    assert diag.converged
    assert not diag.non_unique
    assert diag.final_objective <= 1e-12


def test_solve_single_unit():
    system = make_system([[3.0], [9.0]], [1.0, 2.0])
    w, diag = solve_simplex_qp(system)
    np.testing.assert_array_equal(w.weights, [1.0])
    assert diag.converged


def test_solve_recovers_interior_solution():
    rng = np.random.default_rng(8)
    a = rng.normal(0, 1, (6, 3))
    w_star = np.array([0.2, 0.5, 0.3])
    system = make_system(a, a @ w_star)
    w, diag = solve_simplex_qp(system)
    np.testing.assert_allclose(w.weights, w_star, atol=1e-6)

    # independent check: no simplex grid point at step 1e-3 does better
    step = 1e-3
    grid = np.arange(0.0, 1.0 + step, step)
    best = np.inf
    for w1 in grid:
        w2 = np.arange(0.0, 1.0 - w1 + step, step)
        pts = np.column_stack([np.full_like(w2, w1), w2, 1.0 - w1 - w2])
        resid = system.b_vector[None, :] - pts @ a.T
        best = min(best, (resid**2).sum(axis=1).min())
    assert diag.final_objective <= best + 1e-12


def test_diagonal_weighting_matches_row_scaled_identity():
    # solving with diagonal V equals solving the row-rescaled system with
    # identity weighting: both express the same quadratic
    rng = np.random.default_rng(40)
    a = rng.normal(0, 1, (5, 3))
    b = rng.normal(0, 1, 5)
    v_diag = np.array([4.0, 1.0, 0.25, 2.0, 9.0])
    w_v, _ = solve_simplex_qp(make_system(a, b), np.diag(v_diag))
    root = np.sqrt(v_diag)
    w_scaled, _ = solve_simplex_qp(make_system(a * root[:, None], b * root))
    np.testing.assert_allclose(w_v.weights, w_scaled.weights, atol=1e-8)

    # likewise a non-symmetric V and its symmetric part, and the objective
    # reported is the one gmm_objective evaluates
    rng = np.random.default_rng(5)
    system = make_system(rng.normal(size=(6, 4)), rng.normal(size=6))
    m = rng.normal(size=(6, 6))
    v = m @ m.T + np.eye(6)
    n = v + 2.0 * np.triu(rng.normal(size=(6, 6)), 1)
    w_n, d_n = solve_simplex_qp(system, n)
    w_sym, d_sym = solve_simplex_qp(system, (n + n.T) / 2)
    assert d_n.converged and d_sym.converged
    np.testing.assert_array_equal(w_n.weights, w_sym.weights)
    q_n = gmm_objective(system, n, w_n)
    assert d_n.final_objective == pytest.approx(q_n, rel=1e-12)


def test_weighting_without_a_convex_quadratic_raises():
    # a negative eigenvalue makes the objective non-convex, so no certificate
    # of a minimum holds: the solver refuses it and names the eigenvalue
    rng = np.random.default_rng(5)
    system = make_system(rng.normal(size=(6, 4)), rng.normal(size=6))
    for v, message in [
        (np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]), "eigenvalue -1"),
        (np.full((6, 6), np.nan), "finite"),
    ]:
        with pytest.raises(BadConfigError, match=message):
            solve_simplex_qp(system, v)


def test_solver_deterministic():
    rng = np.random.default_rng(21)
    system = make_system(rng.normal(0, 1, (4, 5)), rng.normal(0, 1, 4))
    w1, d1 = solve_simplex_qp(system)
    w2, d2 = solve_simplex_qp(system)
    assert np.array_equal(w1.weights, w2.weights)
    assert d1 == d2


def test_solution_beats_every_vertex():
    rng = np.random.default_rng(33)
    for _ in range(5):
        system = make_system(rng.normal(0, 2, (5, 4)), rng.normal(0, 2, 5))
        w, diag = solve_simplex_qp(system)
        for j in range(4):
            vertex = np.zeros(4)
            vertex[j] = 1.0
            resid = system.b_vector - system.a_matrix @ vertex
            assert diag.final_objective <= resid @ resid + 1e-12


def test_rank_deficient_flags_non_unique():
    # one moment row for three units: a full face of minimizers
    system = make_system([[1.0, 1.0, 1.0]], [1.0])
    w, diag = solve_simplex_qp(system)
    assert diag.non_unique
    assert diag.rank_estimate == 1
    assert diag.converged
    # uniform start is already optimal and is kept (deterministic tie-break)
    np.testing.assert_allclose(w.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)
    assert diag.final_objective <= 1e-18


def test_rows_summing_to_zero_over_the_units():
    # A'A's top eigenvector is orthogonal to the uniform start here
    for a, b, expected in [
        ([[1.0, -1.0]], [0.5], [0.75, 0.25]),
        ([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], [0.3, 0.1], [0.5, 0.3, 0.2]),
    ]:
        w, diag = solve_simplex_qp(make_system(a, b))
        assert diag.converged
        np.testing.assert_allclose(w.weights, expected, rtol=0, atol=1e-9)


def offset_systems():
    """Random systems, each with the offset direction v that tests add."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        yield rng.normal(size=(8, 5)), rng.normal(size=8), rng.normal(size=8)


def test_offset_shared_by_every_column_leaves_the_fit():
    # adding c v to every column of A and to b leaves A w - b as it is for
    # every w on the simplex; stepped by the full curvature, which grows as
    # c^2, the fits took 32-64 iterations at c = 0, 160-640 at 10 and
    # 7,088-16,272 at 1e3, and at 1e4 two of them stopped unconverged 0.05
    # and 0.26 off
    for a, b, v in offset_systems():
        w_0, d_0 = solve_simplex_qp(make_system(a, b))
        assert d_0.converged
        for c in (10.0, 1e2, 1e3, 1e4):
            w, diag = solve_simplex_qp(make_system(a + c * v[:, None], b + c * v))
            assert diag.converged, c
            assert diag.iterations <= 2 * d_0.iterations, c
            np.testing.assert_allclose(w.weights, w_0.weights, rtol=0, atol=1e-8)


def test_large_offset_is_not_certified_off_the_minimizer():
    # at c = 1e6 the full curvature hid the whole problem: every fit
    # returned uniform weights, converged, after one iteration
    for a, b, v in offset_systems():
        w_0 = solve_simplex_qp(make_system(a, b))[0].weights
        w, diag = solve_simplex_qp(make_system(a + 1e6 * v[:, None], b + 1e6 * v))
        if diag.converged:
            np.testing.assert_allclose(w.weights, w_0, rtol=0, atol=1e-6)


def test_identical_columns_fit_uniform_weights():
    # every feasible point is optimal; the row means of these columns round,
    # so the centred curvature is rounding noise, and a step by its
    # reciprocal gave (0.219, 0.219, 0.219, 0.219, 0.125), a face and a vertex
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        a = np.tile(rng.normal(size=6)[:, None], 5)
        assert (a - a.mean(axis=1, keepdims=True)).any()
        w, diag = solve_simplex_qp(make_system(a, rng.normal(size=6)))
        np.testing.assert_array_equal(w.weights, np.full(5, 0.2))
        assert diag.converged and diag.non_unique


def test_zero_system_returns_uniform():
    # a zero system, or a zero weighting of a nonzero one: the zero quadratic
    rng = np.random.default_rng(5)
    for system, v in [
        (make_system(np.zeros((2, 3)), np.zeros(2)), None),
        (make_system(rng.normal(size=(6, 4)), rng.normal(size=6)), np.zeros((6, 6))),
    ]:
        w, diag = solve_simplex_qp(system, v)
        n = system.a_matrix.shape[1]
        np.testing.assert_array_equal(w.weights, np.full(n, 1 / n))
        assert diag.converged and diag.non_unique


def test_max_iterations_reported(golden):
    rng = np.random.default_rng(4)
    a = rng.normal(0, 1, (8, 6))
    system = make_system(a, rng.normal(0, 1, 8))
    w, diag = solve_simplex_qp(system, opts=SolverOptions(tol=0.0, max_iter=5))
    assert not diag.converged
    assert diag.iterations == 5
    assert w.weights.min() >= 0.0
    # the same system, a rank-deficient one and a single unit at max_iter
    # 5, 16 and 17 under the default tol
    golden("max_iter")


def test_curvature_outside_the_double_range():
    # A'A's entries stay in the double range up to scales 1e+-150 and leave
    # it at 1e+-200, where the solver raises instead of fitting a zero or
    # infinite quadratic
    rng = np.random.default_rng(3)
    a, b = rng.normal(0, 1, (6, 4)), rng.normal(0, 1, 6)
    cases = [(a, b, (1e-150, 1e-100, 1e100, 1e150), 1e-8)]
    # the face polish is scale-free, so random systems reach the same fit at
    # every scale, and converge
    for seed in range(60):
        r = np.random.default_rng(seed)
        m, j = r.integers(8, 31), r.integers(2, 11)
        cases.append((r.normal(size=(m, j)), r.normal(size=m),
                      (1e-80, 1e-20, 1e-5, 1e5, 1e20, 1e80), 1e-9))
    for a_s, b_s, scales, atol in cases:
        fits = [solve_simplex_qp(make_system(a_s * c, b_s * c)) for c in (1.0, *scales)]
        for c, (w, diag) in zip((1.0, *scales), fits):
            assert diag.converged and diag.iterations > 0, c
            np.testing.assert_allclose(w.weights, fits[0][0].weights, rtol=0, atol=atol)
    for c in (1e-200, 1e200):
        with pytest.raises(MomentOverflowError):
            solve_simplex_qp(make_system(a * c, b * c))

    panel, _ = gen_mixture_dgp(figure2_spec().dgp_config(10, 1))
    fits = [
        estimate_weights(PanelData(units=panel.units, outcomes=panel.outcomes * c,
                                   t0=panel.t0), Method.ABADIE, MomentConfig())[0]
        for c in (1.0, 1e80)
    ]
    np.testing.assert_allclose(fits[1].weights, fits[0].weights, rtol=0, atol=1e-7)

    # the step bound is an exact eigenvalue, so it scales as the square
    rng = np.random.default_rng(0)
    a, b = rng.normal(0, 1, (30, 10)), rng.normal(0, 1, 30)
    def lipschitz(a):
        return _lipschitz(a, a - a.mean(axis=1, keepdims=True))

    lip = lipschitz(a)
    for c in (1e-80, 1e-20, 1e20, 1e80):
        scaled = lipschitz(a * c) / c**2
        assert scaled == pytest.approx(lip, rel=1e-12), c

    # a subnormal curvature has too few digits to step by: at 1e-158 and
    # 1e-160 (lambda_max 6.8e-315 and 6.8e-319) the fit stopped unconverged
    # 7.3e-8 and 1.4e-4 away from the scale-1 weights; now it raises, and at
    # 1e-154 (6.8e-307, normal) it still fits
    w_1 = solve_simplex_qp(make_system(a, b))[0].weights
    w_s, diag = solve_simplex_qp(make_system(a * 1e-154, b * 1e-154))
    assert diag.converged
    np.testing.assert_allclose(w_s.weights, w_1, rtol=0, atol=1e-15)
    for c in (1e-158, 1e-160):
        with pytest.raises(MomentOverflowError):
            solve_simplex_qp(make_system(a * c, b * c))


# The solver before its per-call savings (.dot for @, in-place updates,
# list-side minima and maxima), kept as the reference that solve_simplex_qp
# must match bit for bit. The goldens pin bytes on the recording kernel only;
# this compares two programs on whichever BLAS kernel runs the test.


def _reference_project(v):
    total = np.add.reduce(v)
    if not math.isfinite(total) and not np.isfinite(v).all():
        raise DimensionMismatchError("projection input must be finite")
    if total == 1.0 and np.minimum.reduce(v) >= 0.0:
        return v.copy()
    u = sorted(v.tolist(), reverse=True)
    cs = 0.0
    cssv = []
    rho = 0
    for k, u_k in enumerate(u, 1):
        cs += u_k
        c = cs - 1.0
        cssv.append(c)
        if u_k - c / k > 0:
            rho += 1
    theta = np.float64(cssv[rho - 1]) / rho
    w = v - theta
    np.maximum(w, 0.0, out=w)
    excess = np.add.reduce(w) - 1.0
    if excess != 0.0:
        order = w.argsort()[::-1].tolist()
        support = order[: np.count_nonzero(w)] or order
        for i in support:
            if w[i] - excess >= 0.0:
                w[i] -= excess
                excess = np.add.reduce(w) - 1.0
                if excess == 0.0:
                    break
        for i in support:
            if excess == 0.0:
                break
            w[i] = np.nextafter(w[i], -math.inf if excess > 0.0 else math.inf)
            excess = np.add.reduce(w) - 1.0
    if (abs(total - 1.0) <= 2.0**-52 and u[-1] >= 0.0
            and np.maximum.reduce(np.abs(w - v)) > 2.0**-51):
        return v.copy()
    return w


def _reference_lipschitz(a):
    with np.errstate(over="ignore", invalid="ignore"):
        h = a.T @ a
        centred = a - a.mean(axis=1, keepdims=True)
        h_c = centred.T @ centred
    tiny = np.finfo(float).tiny
    lam = float(np.linalg.eigvalsh(h)[-1]) if np.isfinite(h).all() else 0.0
    if lam < tiny and a.any():
        raise MomentOverflowError(
            "the curvature of a nonzero system is subnormal or not finite; "
            "rescale the outcomes"
        )
    lam_c = float(np.linalg.eigvalsh(h_c)[-1]) if np.isfinite(h_c).all() else math.nan
    if lam_c <= a.size * ((a.shape[1] + 2) * np.finfo(float).eps) ** 2 * lam:
        return 0.0
    if not lam_c >= tiny:
        raise MomentOverflowError(
            "the curvature along the simplex is subnormal or not finite; "
            "rescale the outcomes"
        )
    return 2.0 * lam_c


def _reference_polish(a, b, w, f_w, f_start, half_lip, tol):
    support = np.flatnonzero(w > 0.0)
    rest, last = support[:-1], support[-1]
    a_last = a[:, last]
    sol = np.linalg.lstsq(a[:, rest] - a_last[:, None], b - a_last, rcond=None)[0]
    candidate = np.zeros_like(w)
    candidate[rest] = sol
    candidate[last] = 1.0 - sol.sum()
    if candidate.min() < -1e-9:
        return None
    candidate = _reference_project(candidate)
    r = b - a @ candidate
    f_c = float(r @ r)
    moved = candidate - _reference_project(candidate + (a.T @ r) / half_lip)
    pg = float(np.maximum.reduce(np.abs(moved)))
    if f_c > f_w + 1e-12 * f_start or pg > tol:
        return None
    return candidate, f_c, pg


def reference_solve_simplex_qp(system, v=None, opts=SolverOptions()):
    a, b = _fold(system, v)
    n = a.shape[1]
    rank = int(np.linalg.matrix_rank(a))
    non_unique = 1 < n and rank < n
    w = np.full(n, 1.0 / n)
    lip = _reference_lipschitz(a) if n > 1 else 0.0
    level = a.mean(axis=1)
    a, b = a - level[:, None], b - level
    r = b - a @ w
    f_w = float(r @ r)
    converged = lip <= 0.0
    iterations, pg_norm = 0, 0.0
    lip *= 1.05
    half_lip = 0.5 * lip

    f_start = f_w
    y = w
    t = 1.0
    since_restart = 0
    stagnant = 0
    may_polish = not non_unique
    a_t = a.T
    for iterations in range(1, 0 if converged else opts.max_iter + 1):
        r_y = b - a @ y
        step = _reference_project(y + (a_t @ r_y) / half_lip)
        d = step - y
        r_step = r_y - a @ d
        f_step = float(r_step @ r_step)

        since_restart += 1
        stagnant = 0 if f_step < f_w else stagnant + 1
        accepted = f_step <= f_w
        if not accepted and since_restart >= 50:
            y, t = w, 1.0
            since_restart = 0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            if accepted:
                y = step + ((t - 1.0) / t_new) * (step - w)
            else:
                y = w + (t / t_new) * (step - w)
            t = t_new
        if accepted:
            w, f_w = step, f_step

        last = iterations == opts.max_iter
        if last or iterations % 16 == 0 or np.maximum.reduce(np.abs(d)) <= 4.0 * opts.tol:
            moved = w - _reference_project(w + (a_t @ (b - a @ w)) / half_lip)
            pg_norm = float(np.maximum.reduce(np.abs(moved)))
            if pg_norm <= opts.tol:
                converged = True
                break
            if may_polish and (last or pg_norm <= 100.0 * opts.tol or stagnant >= 300):
                polished = _reference_polish(a, b, w, f_w, f_start, half_lip, opts.tol)
                if polished is not None:
                    w, f_w, pg_norm = polished
                    converged = True
                    break
            if stagnant >= 600:
                break

    return (
        WeightVector(w),
        SolveDiagnostics(
            iterations=iterations,
            final_objective=f_w,
            projected_gradient_norm=pg_norm,
            rank_estimate=rank,
            converged=converged,
            non_unique=non_unique,
        ),
    )


def bit_identity_systems():
    """(system, V) pairs, all seeded: every layout, weighting and rank."""
    for m, j in itertools.product((1, 2, 4, 7, 15), (1, 2, 3, 10, 21, 50)):
        rng = np.random.default_rng(100 * m + j)
        a, b = rng.normal(size=(m, j)), rng.normal(size=m)
        mats = [a]
        if 1 < j <= m:
            # a repeated column: rank-deficient though m >= J
            deficient = a.copy()
            deficient[:, -1] = deficient[:, 0]
            mats.append(deficient)
        for k, mat in enumerate(mats):
            weightings = [None, np.diag(rng.uniform(0.5, 2.0, m))]
            q = rng.normal(size=(m, m))
            weightings.append(q @ q.T / m + 0.1 * np.eye(m))
            # C-ordered, and as abadie builds it: the transpose of a (J, m) array
            for mat_layout in (mat, np.ascontiguousarray(mat.T).T):
                yield make_system(mat_layout, b), weightings[(m + j + k) % 3]
    # rank-deficient fits that ended on the stagnation break (three of the
    # four under OPENBLAS_CORETYPE=Haswell); their optimum is unique, so the
    # active-set walk now finishes each at the default max_iter
    for seed in (134, 136, 188, 204):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=10) * 0.7
        a = np.vstack([mu, mu**2 + rng.uniform(0.1, 1.0, 10)])
        yield make_system(a, [mu.min() - rng.uniform(0.1, 0.6), rng.uniform(1, 3)]), None
    # the same kind of system with the leftmost column repeated, so that the
    # optimum is not unique: the walk declines, and each ends on the
    # stagnation break
    for seed in (4, 132, 177, 183):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=9) * 0.7
        a = np.vstack([mu, mu**2 + rng.uniform(0.1, 1.0, 9)])
        a = np.hstack([a, a[:, [int(np.argmin(mu))]]])
        yield make_system(a, [mu.min() - rng.uniform(0.1, 0.6), rng.uniform(1, 3)]), None
    # every column and b share an offset
    for a, b, v in offset_systems():
        yield make_system(a + 1e4 * v[:, None], b + 1e4 * v), None


def exact_simplex_optimum(a, b):
    """The minimizer of ||b - A w||^2 over the simplex, by enumerating every face.

    On each face whose KKT matrix is nonsingular, the face's minimizer is
    solved from the Gram form; the optimum is the one with positive weights
    whose units off the face all have nonnegative multipliers. Returns the
    face minimizer that comes closest to that, and asserts it is within
    rounding. 2^J - 1 faces: for small J only.
    """
    j = a.shape[1]
    h, c = a.T @ a, a.T @ b
    scale = max(np.abs(h).max(), np.abs(c).max())
    best, best_violation = None, math.inf
    for k in range(1, j + 1):
        for face in itertools.combinations(range(j), k):
            face = list(face)
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = h[np.ix_(face, face)]
            kkt[k, k] = 0.0
            if np.linalg.matrix_rank(kkt) <= k:
                continue
            sol = np.linalg.solve(kkt, np.append(c[face], 1.0))
            if sol[:k].min() <= 0.0:
                continue
            w = np.zeros(j)
            w[face] = sol[:k]
            multipliers = np.delete(h @ w - c + sol[k], face)
            violation = max(0.0, -multipliers.min(initial=0.0)) / scale
            if violation < best_violation:
                best, best_violation = w, violation
    assert best_violation <= 1e-12
    return best


def slow_unique_systems():
    """Rank-deficient systems (3 power moments of 8 units) with a unique
    optimum on a face of two or three units, each of which took the reference
    solver 1,548 to 5,690 iterations (178 stopped unconverged after 1,663)."""
    for seed in (13, 178, 262, 286):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=8)
        a = np.vstack([mu, mu**2, mu**3])
        yield a, np.array([rng.normal() * 0.5, *rng.uniform(0.2, 2.0, 2)])


def recording_walks(monkeypatch):
    """Patch the solver's walk; the list receives, per walk, whether it finished."""
    walk = solver._walk
    finished = []

    def recorded(*args):
        result = walk(*args)
        finished.append(result is not None)
        return result

    monkeypatch.setattr(solver, "_walk", recorded)
    return finished


def test_walk_finishes_slow_rank_deficient_fits():
    # the reference solver lay 8.5e-9 to 4.5e-6 from the exact optimum
    for a, b in slow_unique_systems():
        system = make_system(a, b)
        assert reference_solve_simplex_qp(system)[1].iterations > 1500
        w, diag = solve_simplex_qp(system)
        assert diag.non_unique and diag.converged
        assert diag.iterations <= 512
        np.testing.assert_allclose(w.weights, exact_simplex_optimum(a, b), rtol=0, atol=1e-8)


def test_walk_keeps_non_unique_fits(monkeypatch):
    # the same slow systems with one optimal column repeated: weight can move
    # between the two copies, so the walk declines every time it is tried and
    # the fit keeps the reference solver's bytes
    finished = recording_walks(monkeypatch)
    for a, b in slow_unique_systems():
        k = int(np.argmax(exact_simplex_optimum(a, b)))
        system = make_system(np.hstack([a, a[:, [k]]]), b)
        finished.clear()
        w, diag = solve_simplex_qp(system)
        w_ref, diag_ref = reference_solve_simplex_qp(system)
        assert finished and not any(finished)
        assert diag.iterations >= 512
        assert w.weights.tobytes() == w_ref.weights.tobytes()
        assert diag == diag_ref


def test_walk_rejects_a_zero_gap_face():
    # columns (0, 0) and (1, 0), b = (x, 1): the optimum is the first column
    # for x <= 0, and it is unique; at x = 0 the second column's gradient
    # equals the first's, so the walk cannot certify it from either start
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    for x, expected in [(0.0, None), (-1.0, [1.0, 0.0])]:
        b = np.array([x, 1.0])
        for start in ([0.5, 0.5], [1.0, 0.0]):
            r = b - a @ start
            walked = solver._walk(a, b, np.array(start), r @ r, r @ r, 1.0, 1e-10)
            if expected is None:
                assert walked is None, start
            else:
                np.testing.assert_array_equal(walked[0], expected)


def test_walk_rejects_a_flat_face():
    # every w with w_2 + 2 w_3 = 1 is optimal, the uniform start among them:
    # the face of all three units has a reduced matrix of rank 1, so the
    # walk keeps off its minimum-norm point (0.4, 0.2, 0.4)
    a = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]])
    b = np.array([1.0, 0.0])
    start = np.full(3, 1.0 / 3.0)
    r = b - a @ start
    assert solver._walk(a, b, start, r @ r, r @ r, 1.0, 1e-10) is None


def test_solver_matches_reference_bit_for_bit(monkeypatch):
    # where the walk finishes a fit, the fit is checked against the exact
    # optimum instead. That happens at the default max_iter only: on
    # SkylakeX for the four rank-deficient stagnation cases of
    # bit_identity_systems (76 to 79); under Haswell for three of them, and
    # for the 7 x 10 fits with a full V (52 and 53), which take more than 256
    # iterations there
    finished = recording_walks(monkeypatch)
    exits = collections.Counter()
    walked = []
    for index, (system, v) in enumerate(bit_identity_systems()):
        for max_iter in (1, 5, 17, SolverOptions().max_iter):
            opts = SolverOptions(max_iter=max_iter)
            finished.clear()
            w, diag = solve_simplex_qp(system, v, opts)
            w_ref, diag_ref = reference_solve_simplex_qp(system, v, opts)
            assert w.intercept is w_ref.intercept is None
            if any(finished):
                walked.append((index, max_iter))
                assert diag.converged and diag.iterations % 256 == 0
                exact = exact_simplex_optimum(*_fold(system, v))
                np.testing.assert_allclose(w.weights, exact, rtol=0, atol=1e-8)
                continue
            assert w.weights.tobytes() == w_ref.weights.tobytes()
            got, expected = dataclasses.astuple(diag), dataclasses.astuple(diag_ref)
            assert [float(x).hex() for x in got] == [float(x).hex() for x in expected]
            assert [type(x) for x in got] == [type(x) for x in expected]
            exits[diag.converged, diag.iterations == max_iter] += 1
    assert len(walked) >= 3
    assert {max_iter for _, max_iter in walked} == {SolverOptions().max_iter}, walked
    # converged, stopped at max_iter, and stopped early unconverged
    assert exits[True, False] and exits[False, True] and exits[False, False], exits


def test_weight_vector_validation():
    with pytest.raises(DimensionMismatchError):
        WeightVector(np.array([0.7, 0.7]))
    with pytest.raises(DimensionMismatchError):
        WeightVector(np.array([-0.1, 1.1]))
    wv = WeightVector(np.array([0.4, 0.6]), intercept=2.5)
    assert wv.intercept == 2.5
    assert len(wv) == 2
    # tiny negatives from float arithmetic are clamped
    clamped = WeightVector(np.array([1.0 + 1e-13, -1e-13]))
    assert clamped.weights.min() == 0.0
    # NaN compares false against both the sign and the sum bound
    for bad in ([np.nan, np.nan], [np.nan, 1.0]):
        with pytest.raises(DimensionMismatchError):
            WeightVector(np.array(bad))


def test_ls_unconstrained_exact_regressor():
    rng = np.random.default_rng(12)
    t0 = 40
    x1 = rng.normal(0, 1, t0 + 4)
    x2 = rng.normal(0, 1, t0 + 4)
    panel = PanelData(units=("tr", "a", "b"), outcomes=np.vstack([x1, x1, x2]), t0=t0)
    coef = ls_unconstrained(panel)
    np.testing.assert_allclose(coef, [1.0, 0.0], atol=1e-10)


def test_ls_unconstrained_singular_gram():
    rng = np.random.default_rng(13)
    x = rng.normal(0, 1, 12)
    panel = PanelData(
        units=("tr", "a", "b"), outcomes=np.vstack([rng.normal(0, 1, 12), x, x]), t0=9
    )
    with pytest.raises(SingularGramError):
        ls_unconstrained(panel)


@pytest.mark.parametrize(
    "cond, certified", [(1.0, True), (1e6, False), (1e10, False), (1e13, False), (np.inf, False)]
)
def test_ls_unconstrained_rank_decision_is_matrix_rank(cond, certified, monkeypatch):
    # T0 = 100,000 regressors of a set condition number; np.inf stands for
    # exactly collinear columns. Well-conditioned inputs are certified from
    # the Gram without the SVD; every other input gets matrix_rank's answer.
    t0 = 100_000
    rng = np.random.default_rng(14)
    q, _ = np.linalg.qr(rng.normal(0, 1, (t0 + 1, 2)))
    if np.isinf(cond):
        x = np.column_stack([q[:, 0], 2.0 * q[:, 0]])
    else:
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
        x = q * [1.0, 1.0 / cond] @ rotation
    panel = PanelData(
        units=("tr", "a", "b"), outcomes=np.vstack([rng.normal(0, 1, t0 + 1), x.T]), t0=t0
    )
    pre = panel.untreated_outcomes[:, :t0].T
    singular = np.linalg.matrix_rank(pre) < 2
    svd_calls = []
    matrix_rank = np.linalg.matrix_rank
    monkeypatch.setattr(
        np.linalg, "matrix_rank", lambda a: svd_calls.append(1) or matrix_rank(a)
    )
    if singular:
        with pytest.raises(SingularGramError):
            ls_unconstrained(panel)
    else:
        coef = ls_unconstrained(panel)
        y = panel.treated_outcomes[:t0]
        assert coef.tobytes() == np.linalg.solve(pre.T @ pre, pre.T @ y).tobytes()
    assert len(svd_calls) == (0 if certified else 1)
    assert singular == (cond >= 1e13)
