import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthctl.errors import DimensionMismatchError, MomentOverflowError, SingularGramError
from synthctl.estimators import Method, estimate_weights
from synthctl.moments import MomentConfig, MomentSystem, build_system
from synthctl.panel import PanelData
from synthctl.simlab import figure2_spec, gen_mixture_dgp
from synthctl.solver import (
    SolverOptions,
    WeightVector,
    _Quadratic,
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
    # often stops one ulp away from 1.0 (about 0.8% of such vectors)
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
    n = v.shape[0]
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(1, n + 1)
    rho = int(np.count_nonzero(u - cssv / ind > 0))
    theta = cssv[rho - 1] / rho
    w = np.maximum(v - theta, 0.0)
    # absorb the residual summation error so sum(w) == 1.0 bitwise
    for i in np.argsort(w)[::-1]:
        excess = w.sum() - 1.0
        if excess == 0.0:
            break
        if w[i] - excess >= 0.0:
            w[i] -= excess
    if abs(v.sum() - 1.0) <= 2.0**-52 and v.min() >= 0.0 and np.abs(w - v).max() > 2.0**-51:
        return v.copy()
    return w


def projection_inputs():
    # rounding makes u_k > cssv_k / k fail at some k and hold again later;
    # the threshold counts every k where it holds
    yield np.array([0.20596382785127584, -0.7940361721487241, -0.7940361721487241])
    yield np.array([0.5623976772929592, 0.3012921765535601] + [-0.06815507307674035] * 3)
    rng = np.random.default_rng(2008)
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


def test_projection_matches_array_reference_bitwise():
    count = 0
    for v in projection_inputs():
        expected = reference_project_simplex(v)
        got = project_simplex(v)
        assert np.array_equal(got, expected), v
        count += 1
    assert count == 2 + 60 * (7 * 6 + 5)


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


def golden_systems():
    spec = figure2_spec()
    panel, _ = gen_mixture_dgp(spec.dgp_config(10, 20231))
    base = dict(include_covariates=True, scaling="max_abs")
    rng = np.random.default_rng(77)
    m = rng.normal(size=(8, 8))
    full_v = m @ m.T / 8 + 0.1 * np.eye(8)
    cases = {
        "g2": (Method.DMSCM, MomentConfig(g=2, **base)),
        "g5": (Method.DMSCM, MomentConfig(g=5, **base)),
        "g10": (Method.DMSCM, MomentConfig(g=10, **base)),
        "abadie": (Method.ABADIE, MomentConfig(g=1)),
    }
    # a general V is no configuration value: these solve the built system directly
    weighted = {
        "diag_v": (MomentConfig(g=5, **base), np.diag(np.linspace(0.5, 3.0, 10))),
        "full_v": (MomentConfig(g=3, **base), full_v),
    }
    return panel, cases, weighted


# (weights as float.hex, iterations, converged, non_unique), recorded with
# numpy's bundled OpenBLAS on x86-64
GOLDEN_SOLVES = {
    "g2": (
        ["0x1.0fbb9e5d91b22p-3", "0x0.0p+0", "0x1.f2b3d96aa487cp-2", "0x0.0p+0",
         "0x0.0p+0", "0x1.024534da92ca5p-2", "0x0.0p+0", "0x1.9186946467f6ap-9",
         "0x1.000c2ac66e09fp-3", "0x0.0p+0"],
        235, True, True,
    ),
    "g5": (
        ["0x1.1d4b01a9e0401p-3", "0x1.ccccccccccccdp-54", "0x1.e9aa54c6dd0cbp-2",
         "0x1.ccccccccccccdp-54", "0x1.ccccccccccccdp-54", "0x1.052d72d2acf1ap-2",
         "0x1.ccccccccccccdp-54", "0x1.d702f45fd295ep-8", "0x1.ec9aaf001a5b6p-4",
         "0x1.ccccccccccccdp-54"],
        176, True, False,
    ),
    "g10": (
        ["0x1.2075bf4d403c3p-3", "0x0.0p+0", "0x1.e918240432dafp-2", "0x0.0p+0",
         "0x0.0p+0", "0x1.05653b33f2b99p-2", "0x1.1e32149a47843p-9",
         "0x1.9cd6bf4da8665p-8", "0x1.e26007eb3c731p-4", "0x0.0p+0"],
        160, True, False,
    ),
    "abadie": (
        ["0x1.5487b5903ca73p-2", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x1.156b13a6c6a74p-6", "0x1.bed38f95e43cdp-2", "0x0.0p+0",
         "0x1.b69c133ee5633p-3"],
        176, True, False,
    ),
    "diag_v": (
        ["0x1.fecf46b934bafp-4", "0x0.0p+0", "0x1.f9cf23900ad50p-2", "0x0.0p+0",
         "0x0.0p+0", "0x1.05cd1e89bd53dp-2", "0x0.0p+0", "0x0.0p+0",
         "0x1.f8bf5441aa76bp-4", "0x1.400b93c005758p-9"],
        130, True, False,
    ),
    "full_v": (
        ["0x1.e906b57a81cecp-4", "0x0.0p+0", "0x1.0663471cf557bp-1", "0x0.0p+0",
         "0x0.0p+0", "0x1.0f37aa7e2e801p-2", "0x1.ee9362918688ap-8",
         "0x1.b67527ce56e70p-7", "0x1.51488c82362e7p-4", "0x0.0p+0"],
        328, True, True,
    ),
}


def test_golden_solves_bitwise():
    panel, cases, weighted = golden_systems()
    assert set(cases) | set(weighted) == set(GOLDEN_SOLVES)
    solves = {name: estimate_weights(panel, method, cfg)
              for name, (method, cfg) in cases.items()}
    solves.update((name, solve_simplex_qp(build_system(panel, cfg), v))
                  for name, (cfg, v) in weighted.items())
    for name, (wv, diag) in solves.items():
        got = ([float(x).hex() for x in wv.weights], diag.iterations,
               diag.converged, diag.non_unique)
        assert got == GOLDEN_SOLVES[name], name


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


def test_zero_system_returns_uniform():
    system = make_system(np.zeros((2, 3)), np.zeros(2))
    w, diag = solve_simplex_qp(system)
    np.testing.assert_array_equal(w.weights, np.full(3, 1 / 3))
    assert diag.converged and diag.non_unique


# (weights as float.hex, iterations, converged, projected gradient norm as
# float.hex, non_unique) at the default tol: max_iter 16 ends on a periodic
# certificate, 17 on the last iteration's certificate and polish; recorded
# with numpy's bundled OpenBLAS on x86-64
MAX_ITER_SOLVES = {
    ("full", 5): (
        ["0x0.0p+0", "0x0.0p+0", "0x1.2a16a04438282p-1", "0x1.8467a2f6a20c5p-4",
         "0x0.0p+0", "0x1.4ab8d6b9e72cbp-2"],
        5, False, "0x1.0062b93f23bd4p-6", False,
    ),
    ("full", 16): (
        ["0x0.0p+0", "0x0.0p+0", "0x1.2f9556fc48ebbp-1", "0x0.0p+0", "0x0.0p+0",
         "0x1.a0d552076e28bp-2"],
        16, True, "0x1.0000000000000p-53", False,
    ),
    ("full", 17): (
        ["0x0.0p+0", "0x0.0p+0", "0x1.2f9556fc48ebbp-1", "0x0.0p+0", "0x0.0p+0",
         "0x1.a0d552076e28bp-2"],
        17, True, "0x1.0000000000000p-53", False,
    ),
    ("deficient", 5): (
        ["0x1.2fa08857c5d10p-1", "0x1.c61340331def4p-3", "0x0.0p+0",
         "0x1.56faa2bafbdbbp-3", "0x0.0p+0", "0x1.237fdd967788cp-6"],
        5, False, "0x1.329ee8f527c00p-7", True,
    ),
    ("deficient", 16): (
        ["0x1.498a8e21b8facp-1", "0x1.2f94bfaac68ffp-2", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x1.eab1208e3bd4cp-5"],
        16, False, "0x1.c3b0067946800p-13", True,
    ),
    ("deficient", 17): (
        ["0x1.499d193e28495p-1", "0x1.2f401b8312566p-2", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x1.ec2d9004e8b84p-5"],
        17, False, "0x1.cfd355a52c400p-14", True,
    ),
    ("one", 5): (
        ["0x1.0000000000000p+0"],
        0, True, "0x0.0p+0", False,
    ),
}


def test_max_iterations_reported():
    rng = np.random.default_rng(4)
    a = rng.normal(0, 1, (8, 6))
    system = make_system(a, rng.normal(0, 1, 8))
    w, diag = solve_simplex_qp(system, opts=SolverOptions(tol=0.0, max_iter=5))
    assert not diag.converged
    assert diag.iterations == 5
    assert w.weights.min() >= 0.0

    systems = {
        "full": system,
        "deficient": make_system(rng.normal(0, 1, (3, 6)), rng.normal(0, 1, 3)),
        # one unit with a zero column: rank 0, yet one feasible point
        "one": make_system(np.zeros((2, 1)), [1.0, 2.0]),
    }
    for (name, max_iter), expected in MAX_ITER_SOLVES.items():
        w, diag = solve_simplex_qp(systems[name], opts=SolverOptions(max_iter=max_iter))
        got = ([float(x).hex() for x in w.weights], diag.iterations, diag.converged,
               float(diag.projected_gradient_norm).hex(), diag.non_unique)
        assert got == expected, (name, max_iter)


def test_curvature_outside_the_double_range():
    # A'A's entries stay in the double range up to scales 1e+-150 and leave
    # it at 1e+-200, where the solver raises instead of fitting a zero or
    # infinite quadratic
    rng = np.random.default_rng(3)
    a, b = rng.normal(0, 1, (6, 4)), rng.normal(0, 1, 6)
    fits = [solve_simplex_qp(make_system(a * c, b * c))
            for c in (1.0, 1e-150, 1e-100, 1e100, 1e150)]
    for w, diag in fits:
        assert diag.converged and diag.iterations > 0
        np.testing.assert_allclose(w.weights, fits[0][0].weights, rtol=0, atol=1e-8)
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
    lip = _Quadratic(make_system(a, b), None).lipschitz()
    for c in (1e-80, 1e-20, 1e20, 1e80):
        scaled = _Quadratic(make_system(a * c, b * c), None).lipschitz() / c**2
        assert scaled == pytest.approx(lip, rel=1e-12), c


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
