import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthctl import moments
from synthctl.cli import main
from synthctl.errors import (
    BadConfigError,
    DimensionMismatchError,
    MomentOverflowError,
)
from synthctl.moments import (
    MomentConfig,
    MomentSystem,
    build_demeaned_system,
    build_system,
    gmm_objective,
)
from synthctl.panel import PanelData, save_panel
from synthctl.simlab import figure2_spec, gen_mixture_dgp


def panel_from(treated, untreated_rows, t0):
    outcomes = np.vstack([np.asarray(treated, float)] + [np.asarray(r, float) for r in untreated_rows])
    units = tuple(["tr"] + [f"u{i}" for i in range(len(untreated_rows))])
    return PanelData(units=units, outcomes=outcomes, t0=t0)


def test_hand_computed_system():
    panel = panel_from([1, 2, 9], [[1, 2, 7]], t0=2)
    system = build_system(panel, MomentConfig(g=2, scaling="none"))
    np.testing.assert_allclose(system.a_matrix, [[1.5], [2.5]])
    np.testing.assert_allclose(system.b_vector, [1.5, 2.5])
    assert system.gamma_orders == (1, 2)
    assert system.scale == 1.0


def test_identical_series_zero_discrepancy():
    rng = np.random.default_rng(0)
    series = rng.normal(3, 2, 8)
    panel = panel_from(series, [series, rng.normal(0, 1, 8)], t0=6)
    for g in (1, 3, 6):
        system = build_system(panel, MomentConfig(g=g, scaling="none"))
        e1 = np.array([1.0, 0.0])
        np.testing.assert_array_equal(system.discrepancy(e1), np.zeros(g))


def test_overflow_raised_and_scaling_prevents_it():
    # magnitude ~3000 raised to the 100th power exceeds the double range
    rng = np.random.default_rng(9)
    big = 3000.0 + 50.0 * rng.standard_normal(6)
    panel = panel_from(big, [big[::-1]], t0=4)
    with pytest.raises(MomentOverflowError):
        build_system(panel, MomentConfig(g=100, scaling="none"))
    for scaling in ("pooled_sd", "max_abs"):
        system = build_system(panel, MomentConfig(g=100, scaling=scaling))
        assert np.isfinite(system.a_matrix).all()
        assert np.isfinite(system.b_vector).all()


def test_overflow_still_raised_by_running_product():
    # (1e80)^4 already exceeds the double range, so order 5 is infinite
    vals = 1e80 * np.array([1.0, -2.0, 3.0, 1.5, 2.0])
    panel = panel_from(vals, [vals[::-1]], t0=4)
    with pytest.raises(MomentOverflowError):
        build_system(panel, MomentConfig(g=5, scaling="none"))


def test_non_finite_pooled_sd_raises(tmp_path, capsys):
    # past about 1e154 the pooled sum of squares overflows: the scale was
    # inf, every scaled moment 0, and the fit uniform with exit 0
    panel, _ = gen_mixture_dgp(figure2_spec().dgp_config(5, 2))
    big = PanelData(units=panel.units, outcomes=panel.outcomes * 1e160, t0=panel.t0)
    for builder in (build_system, build_demeaned_system):
        with pytest.raises(MomentOverflowError, match="--scaling max_abs"):
            builder(big, MomentConfig())
        assert np.isfinite(builder(big, MomentConfig(scaling="max_abs")).a_matrix).all()
    path = tmp_path / "big.csv"
    save_panel(big, path)
    argv = ["fit", "--input", str(path), "--treated", big.units[0],
            "--t0", str(big.t0), "--output", str(tmp_path / "fit.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: OVERFLOW:")


def _pow_reference(panel, system):
    """Per-order row means by ``x**g``, the construction the running product replaced."""
    pre = panel.outcomes[:, : panel.t0]
    if system.demeaned:
        pre = pre - pre.mean(axis=1, keepdims=True)
    scaled = pre / system.scale
    return np.array([np.mean(scaled**g, axis=1) for g in system.gamma_orders]), scaled


@pytest.mark.parametrize("scaling", ["none", "pooled_sd", "max_abs"])
@pytest.mark.parametrize("builder", [build_system, build_demeaned_system])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_running_product_matches_pow_reference(scaling, builder, seed):
    rng = np.random.default_rng(seed)
    # negative values, mixed signs and magnitudes around 1, so every sign of
    # the odd powers and every scaling path is exercised
    outcomes = rng.normal(-0.5, 1.5, (4, 60)) * rng.uniform(0.5, 2.0, (4, 1))
    panel = panel_from(outcomes[0], list(outcomes[1:]), t0=50)
    system = builder(panel, MomentConfig(g=10, scaling=scaling))
    ref, scaled = _pow_reference(panel, system)
    got = np.column_stack([system.b_vector, system.a_matrix])
    # odd moments can sit near 0, so the floor scales with the row's |x|^g mean
    floor = 1e-13 * np.array(
        [np.mean(np.abs(scaled) ** g, axis=1) for g in system.gamma_orders]
    )
    assert (np.abs(got - ref) <= 1e-13 * np.abs(ref) + floor).all()
    # order 1 is the scaled series itself and order 2 is x*x == x**2 bit for bit
    np.testing.assert_array_equal(got[:2], ref[:2])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 700), st.integers(1, 8))
def test_scale_is_numpy_std_and_max_bitwise(seed, t0, j):
    # the scales reuse the build's work buffer; numpy's own std and max
    # over the pre-period window (a strided view) are the reference
    rng = np.random.default_rng(seed)
    outcomes = rng.normal(rng.uniform(-100, 100), rng.uniform(0.01, 100), (j + 1, t0 + 3))
    panel = panel_from(outcomes[0], list(outcomes[1:]), t0=t0)
    pre = outcomes[:, :t0]
    assert build_system(panel, MomentConfig(g=3)).scale == float(pre.std())
    max_abs = build_system(panel, MomentConfig(g=3, scaling="max_abs")).scale
    assert max_abs == float(np.abs(pre).max())


def test_magnitude_20_does_not_overflow_at_g100():
    # 20^100 ~ 1.3e130 is large but still finite in a double
    vals = 20.0 - np.arange(6) * 0.1
    panel = panel_from(vals, [vals[::-1]], t0=4)
    system = build_system(panel, MomentConfig(g=100, scaling="none"))
    assert np.isfinite(system.b_vector).all()


def test_demeaned_first_row_vanishes():
    rng = np.random.default_rng(5)
    panel = panel_from(rng.normal(4, 2, 10), [rng.normal(-3, 1, 10), rng.normal(9, 5, 10)], t0=7)
    system = build_demeaned_system(panel, MomentConfig(g=3, scaling="none"))
    assert system.demeaned
    assert np.abs(system.a_matrix[0]).max() < 1e-10
    assert abs(system.b_vector[0]) < 1e-10


def test_demeaning_removes_constant_shifts():
    rng = np.random.default_rng(6)
    base = rng.normal(0, 1, (3, 9))
    panel = panel_from(base[0], [base[1], base[2]], t0=6)
    shifted = panel_from(base[0] + 11.0, [base[1], base[2]], t0=6)
    cfg = MomentConfig(g=3, scaling="none")
    sys_a = build_demeaned_system(panel, cfg)
    sys_b = build_demeaned_system(shifted, cfg)
    np.testing.assert_allclose(sys_b.b_vector, sys_a.b_vector, atol=1e-10)
    np.testing.assert_allclose(sys_b.a_matrix, sys_a.a_matrix, atol=1e-10)


def test_demeaned_hand_example():
    panel = panel_from([0, 2, 5], [[1, 3, 5]], t0=2)
    system = build_demeaned_system(panel, MomentConfig(g=2, scaling="none"))
    # both pre-period series demean to [-1, 1]
    np.testing.assert_allclose(system.a_matrix[1], [1.0])
    np.testing.assert_allclose(system.b_vector[1], 1.0)


def test_objective_zero_at_exact_weights():
    rng = np.random.default_rng(1)
    series = rng.normal(0, 1, 12)
    panel = panel_from(series, [series, rng.normal(0, 2, 12)], t0=9)
    system = build_system(panel, MomentConfig(g=4, scaling="pooled_sd"))
    assert gmm_objective(system, None, np.array([1.0, 0.0])) <= 1e-18


def test_objective_zero_weighting_matrix():
    system = MomentSystem(
        a_matrix=np.array([[1.0], [3.0]]),
        b_vector=np.array([2.0, 6.0]),
        gamma_orders=(1, 2),
        scale=1.0,
        demeaned=False,
    )
    assert gmm_objective(system, np.zeros((2, 2)), np.array([1.0])) == 0.0


def test_objective_hand_arithmetic():
    system = MomentSystem(
        a_matrix=np.array([[1.0], [3.0]]),
        b_vector=np.array([2.0, 6.0]),
        gamma_orders=(1, 2),
        scale=1.0,
        demeaned=False,
    )
    assert gmm_objective(system, None, np.array([1.0])) == pytest.approx(10.0)
    assert gmm_objective(system, np.eye(2), np.array([1.0])) == pytest.approx(10.0)


def test_objective_dimension_mismatch():
    system = MomentSystem(
        a_matrix=np.array([[1.0], [3.0]]),
        b_vector=np.array([2.0, 6.0]),
        gamma_orders=(1, 2),
        scale=1.0,
        demeaned=False,
    )
    with pytest.raises(DimensionMismatchError):
        gmm_objective(system, np.eye(3), np.array([1.0]))
    with pytest.raises(DimensionMismatchError):
        gmm_objective(system, None, np.array([1.0, 2.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_linearity_of_discrepancy(seed, g):
    rng = np.random.default_rng(seed)
    t0, j = 7, 3
    outcomes = rng.normal(0, 2, (j + 1, t0 + 2))
    panel = PanelData(units=("tr", "a", "b", "c"), outcomes=outcomes, t0=t0)
    cfg = MomentConfig(g=g, scaling="pooled_sd")
    system = build_system(panel, cfg)
    w = rng.dirichlet(np.ones(j))
    assembled = system.discrepancy(w)
    scaled = outcomes[:, :t0] / system.scale
    direct = np.array(
        [
            np.mean(scaled[0] ** k) - sum(w[i] * np.mean(scaled[1 + i] ** k) for i in range(j))
            for k in range(1, g + 1)
        ]
    )
    np.testing.assert_allclose(assembled, direct, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_objective_convexity(seed, lam):
    rng = np.random.default_rng(seed)
    panel = PanelData(
        units=("tr", "a", "b", "c"), outcomes=rng.normal(0, 3, (4, 9)), t0=6
    )
    system = build_system(panel, MomentConfig(g=3, scaling="pooled_sd"))
    w1 = rng.dirichlet(np.ones(3))
    w2 = rng.dirichlet(np.ones(3))
    mid = lam * w1 + (1 - lam) * w2
    lhs = gmm_objective(system, None, mid)
    rhs = lam * gmm_objective(system, None, w1) + (1 - lam) * gmm_objective(system, None, w2)
    assert lhs <= rhs + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 2.0, 37.5]))
def test_scale_equivariance(seed, c):
    rng = np.random.default_rng(seed)
    outcomes = rng.normal(1, 4, (3, 10))
    base = PanelData(units=("tr", "a", "b"), outcomes=outcomes, t0=7)
    scaled = PanelData(units=("tr", "a", "b"), outcomes=c * outcomes, t0=7)
    cfg = MomentConfig(g=4, scaling="pooled_sd")
    sys_a = build_system(base, cfg)
    sys_b = build_system(scaled, cfg)
    assert sys_b.scale == pytest.approx(c * sys_a.scale, rel=1e-12)
    np.testing.assert_allclose(sys_b.a_matrix, sys_a.a_matrix, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sys_b.b_vector, sys_a.b_vector, rtol=1e-12, atol=1e-12)


def test_covariate_rows_appended():
    rng = np.random.default_rng(2)
    outcomes = rng.normal(0, 1, (3, 8))
    covs = rng.normal(0, 5, (3, 8, 2))
    panel = PanelData(units=("tr", "a", "b"), outcomes=outcomes, t0=6, covariates=covs)
    system = build_system(panel, MomentConfig(g=2, include_covariates=True, scaling="none"))
    assert system.n_moments == 4
    assert system.n_covariate_rows == 2
    np.testing.assert_allclose(system.b_vector[2], covs[0, :6, 0].mean())


def test_covariates_requested_but_missing():
    panel = PanelData(units=("tr", "a"), outcomes=np.random.default_rng(0).normal(size=(2, 6)), t0=4)
    with pytest.raises(BadConfigError):
        build_system(panel, MomentConfig(g=2, include_covariates=True))


def test_bad_config_rejected():
    with pytest.raises(BadConfigError):
        MomentConfig(g=0)
    with pytest.raises(BadConfigError):
        MomentConfig(scaling="bogus")


# One pass over whole (J+1) x window arrays, the build before the window was
# walked in blocks: numpy's std and max for the scale, then the row means of
# a running product. Covariate rows are plain means of the scaled covariate.
def _one_pass_reference(panel, cfg, demeaned):
    pre = panel.outcomes[:, : panel.t0]
    if demeaned:
        pre = pre - pre.mean(axis=1, keepdims=True)

    def scale_of(values):
        if cfg.scaling == "pooled_sd":
            sd = float(values.std())
            return sd if sd > 0 else 1.0
        if cfg.scaling == "max_abs":
            m = float(np.abs(values).max())
            return m if m > 0 else 1.0
        return 1.0

    scale = scale_of(pre)
    scaled = pre / scale
    power = scaled
    rows = [power.mean(axis=1)]
    for _ in range(1, cfg.g):
        power = power * scaled
        rows.append(power.mean(axis=1))
    abs_means = [np.mean(np.abs(scaled) ** g, axis=1) for g in range(1, cfg.g + 1)]
    if cfg.include_covariates:
        for k in range(panel.covariates.shape[2]):
            x_pre = panel.covariates[:, : panel.t0, k]
            rows.append(np.mean(x_pre / scale_of(x_pre), axis=1))
            abs_means.append(np.mean(np.abs(x_pre / scale_of(x_pre)), axis=1))
    return np.array(rows), scale, np.array(abs_means)


def _covariate_panel(seed, j, t0):
    rng = np.random.default_rng(seed)
    outcomes = rng.normal(-0.5, 1.5, (j + 1, t0 + 5)) * rng.uniform(0.5, 2.0, (j + 1, 1))
    covs = rng.normal(2.0, 3.0, (j + 1, t0 + 5, 2))
    units = tuple(["tr"] + [f"u{i}" for i in range(j)])
    return PanelData(units=units, outcomes=outcomes, t0=t0, covariates=covs)


@pytest.mark.parametrize("scaling", ["none", "pooled_sd", "max_abs"])
@pytest.mark.parametrize("builder", [build_system, build_demeaned_system])
def test_one_block_build_is_the_one_pass_build_bitwise(scaling, builder):
    # 9 rows x 3,000 periods is the largest window of these that fits one
    # block; the pre-period window is a strided view of the outcomes
    for seed, (j, t0) in enumerate([(2, 40), (10, 130), (8, 3000)]):
        assert (j + 1) * t0 <= moments._BLOCK_ELEMS
        panel = _covariate_panel(seed, j, t0)
        cfg = MomentConfig(g=6, include_covariates=True, scaling=scaling)
        system = builder(panel, cfg)
        ref, scale, _ = _one_pass_reference(panel, cfg, system.demeaned)
        got = np.column_stack([system.b_vector, system.a_matrix])
        assert system.scale == scale
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("scaling", ["none", "pooled_sd", "max_abs"])
@pytest.mark.parametrize("builder", [build_system, build_demeaned_system])
@pytest.mark.parametrize("block_elems", [None, 64, 7])
def test_several_block_build_moves_by_rounding_only(monkeypatch, scaling, builder, block_elems):
    # the theorem1 shape at the real block size, and small blocks (down to
    # one period each) on a short window. Bound: 1e-13 of |row mean| plus
    # the row's mean |x|^g, about 450 ulps. Each block adds one rounded
    # partial sum to the pairwise sum's log2(T0) roundings, and the pooled
    # sd's own rounding enters order g g-fold; the largest move seen was
    # 1.3e-15 of that, with one-period blocks.
    if block_elems is None:
        panel = _covariate_panel(11, 2, 100_000)
    else:
        monkeypatch.setattr(moments, "_BLOCK_ELEMS", block_elems)
        panel = _covariate_panel(12, 3, 500)
    assert (panel.n_untreated + 1) * panel.t0 > moments._BLOCK_ELEMS
    cfg = MomentConfig(g=6, include_covariates=True, scaling=scaling)
    system = builder(panel, cfg)
    ref, scale, abs_means = _one_pass_reference(panel, cfg, system.demeaned)
    got = np.column_stack([system.b_vector, system.a_matrix])
    assert system.scale == pytest.approx(scale, rel=1e-14)
    assert (np.abs(got - ref) <= 1e-13 * (np.abs(ref) + abs_means)).all()
    if scaling == "max_abs":
        # the largest |x| is exact in any order
        assert system.scale == scale


def test_overflow_in_the_last_block_alone_is_raised():
    # 2 rows x 40,000 periods is three blocks; only the last holds the 1e80
    # values, whose 4th power exceeds the double range
    t0 = 40_000
    width = moments._BLOCK_ELEMS // 2
    assert t0 - 3 >= 2 * width
    outcomes = np.random.default_rng(13).normal(0.0, 1.0, (2, t0 + 1))
    panel = panel_from(outcomes[0], [outcomes[1]], t0=t0)
    assert np.isfinite(build_system(panel, MomentConfig(g=5, scaling="none")).a_matrix).all()
    outcomes[1, t0 - 3 : t0] = 1e80
    panel = panel_from(outcomes[0], [outcomes[1]], t0=t0)
    with pytest.raises(MomentOverflowError):
        build_system(panel, MomentConfig(g=5, scaling="none"))


def test_build_system_peak_is_bounded():
    # a (3, 100,001) panel, the theorem1 shape: two whole-window arrays
    # would take 4.8 MB, two block buffers take 0.5 MiB
    rng = np.random.default_rng(14)
    outcomes = rng.normal(0.0, 1.0, (3, 100_001))
    panel = panel_from(outcomes[0], list(outcomes[1:]), t0=100_000)
    build_system(panel, MomentConfig(g=4))
    tracemalloc.start()
    try:
        build_system(panel, MomentConfig(g=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
