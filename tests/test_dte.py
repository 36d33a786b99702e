import io
import json
import tracemalloc

import numpy as np
import pytest

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from synthctl.dte import (
    _median_bandwidth,
    bootstrap_counterfactual,
    mmd_squared,
    mmd_test,
    quantiles,
    save_draws,
)
from synthctl.errors import BadProbError, DimensionMismatchError
from synthctl.panel import PanelData
from synthctl.solver import WeightVector


def simple_panel(seed=0, t0=6, t1=8, j=3):
    rng = np.random.default_rng(seed)
    outcomes = rng.normal(3, 2, (j + 1, t0 + t1))
    units = tuple(["tr"] + [f"u{i}" for i in range(j)])
    return PanelData(units=units, outcomes=outcomes, t0=t0)


def test_degenerate_weights_draw_single_unit():
    panel = simple_panel()
    w = WeightVector(np.array([1.0, 0.0, 0.0]))
    sample = bootstrap_counterfactual(panel, w, l=500, seed=4)
    post_values = set(panel.untreated_outcomes[0, panel.t0 :].tolist())
    assert set(sample.draws.tolist()) <= post_values


def test_constant_units_constant_draws():
    outcomes = np.full((3, 8), 6.5)
    outcomes[0, 5:] += 1.0
    panel = PanelData(units=("tr", "a", "b"), outcomes=outcomes, t0=5)
    w = WeightVector(np.array([0.3, 0.7]))
    sample = bootstrap_counterfactual(panel, w, l=100, seed=1)
    assert np.array_equal(sample.draws, np.full(100, 6.5))


def test_law_of_large_numbers():
    panel = simple_panel(seed=9, t0=10, t1=12, j=2)
    w = WeightVector(np.array([0.3, 0.7]))
    sample = bootstrap_counterfactual(panel, w, l=100_000, seed=7)
    post = panel.untreated_outcomes[:, panel.t0 :]
    target = 0.3 * post[0].mean() + 0.7 * post[1].mean()
    se = sample.draws.std() / np.sqrt(sample.l)
    assert abs(sample.draws.mean() - target) <= 3 * se


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bootstrap_support_property(seed):
    panel = simple_panel(seed=seed % 7, t0=5, t1=6, j=3)
    rng = np.random.default_rng(seed)
    w = WeightVector(rng.dirichlet(np.ones(3)))
    sample = bootstrap_counterfactual(panel, w, l=64, seed=seed)
    post_multiset = set(panel.untreated_outcomes[:, panel.t0 :].ravel().tolist())
    assert set(sample.draws.tolist()) <= post_multiset


def test_intercept_added_to_draws():
    panel = simple_panel(seed=2)
    w_flat = WeightVector(np.array([0.5, 0.25, 0.25]))
    w_shift = WeightVector(np.array([0.5, 0.25, 0.25]), intercept=11.0)
    base = bootstrap_counterfactual(panel, w_flat, l=50, seed=3)
    shifted = bootstrap_counterfactual(panel, w_shift, l=50, seed=3)
    np.testing.assert_array_equal(shifted.draws, base.draws + 11.0)


def test_seed_determinism_bitwise():
    panel = simple_panel(seed=5)
    w = WeightVector(np.array([0.2, 0.5, 0.3]))
    a = bootstrap_counterfactual(panel, w, l=1000, seed=42)
    b = bootstrap_counterfactual(panel, w, l=1000, seed=42)
    assert np.array_equal(a.draws, b.draws)
    c = bootstrap_counterfactual(panel, w, l=1000, seed=43)
    assert not np.array_equal(a.draws, c.draws)


def test_bootstrap_requires_multiple_draws():
    panel = simple_panel()
    with pytest.raises(DimensionMismatchError):
        bootstrap_counterfactual(panel, WeightVector(np.array([1.0, 0.0, 0.0])), 1, 0)


def test_quantile_examples():
    sample = bootstrap_counterfactual(
        simple_panel(), WeightVector(np.array([1.0, 0.0, 0.0])), 10, 0
    )
    object.__setattr__(sample, "draws", np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert quantiles(sample, [0.5]) == [3.0]
    object.__setattr__(sample, "draws", np.full(9, 2.25))
    assert quantiles(sample, [0.1, 0.5, 0.9]) == [2.25, 2.25, 2.25]


def test_quantile_against_normal():
    rng = np.random.default_rng(17)
    sample = bootstrap_counterfactual(
        simple_panel(), WeightVector(np.array([1.0, 0.0, 0.0])), 10, 0
    )
    object.__setattr__(sample, "draws", rng.standard_normal(100_000))
    (q,) = quantiles(sample, [0.975])
    assert q == pytest.approx(1.96, abs=0.05)


def test_quantile_validation():
    sample = bootstrap_counterfactual(
        simple_panel(), WeightVector(np.array([1.0, 0.0, 0.0])), 10, 0
    )
    with pytest.raises(BadProbError):
        quantiles(sample, [0.0])
    with pytest.raises(BadProbError):
        quantiles(sample, [0.9, 0.1])
    with pytest.raises(BadProbError):
        quantiles(sample, [])


def test_draws_csv_round_trip():
    panel = simple_panel(seed=21)
    sample = bootstrap_counterfactual(
        panel, WeightVector(np.array([0.6, 0.2, 0.2])), 25, 9
    )
    buf = io.StringIO()
    save_draws(sample, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "draw"
    parsed = np.array([float(v) for v in lines[1:]])
    assert np.array_equal(parsed, sample.draws)


def test_mmd_identical_samples():
    a = np.linspace(-2, 2, 40)
    report = mmd_test(a, a.copy(), permutations=99, seed=0)
    assert report.mmd2 <= 1e-12
    assert report.p_value >= 0.3


def test_mmd_separated_samples():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 1, 200)
    b = rng.normal(5, 1, 200)
    report = mmd_test(a, b, permutations=500, seed=1)
    assert report.p_value <= 0.01
    assert report.mmd2 > 0.5


def test_mmd_p_value_bounds():
    rng = np.random.default_rng(8)
    for permutations in (1, 7, 50):
        a = rng.normal(0, 1, 30)
        b = rng.normal(0.2, 1, 30)
        report = mmd_test(a, b, permutations=permutations, seed=2)
        assert 1.0 / (permutations + 1) <= report.p_value <= 1.0


def test_mmd_seed_determinism():
    rng = np.random.default_rng(12)
    a, b = rng.normal(0, 1, 50), rng.normal(0.5, 1, 50)
    r1 = mmd_test(a, b, permutations=200, seed=5)
    r2 = mmd_test(a, b, permutations=200, seed=5)
    assert r1 == r2


def test_mmd_constant_data_fallback_bandwidth():
    a = np.full(10, 3.0)
    report = mmd_test(a, a.copy(), permutations=20, seed=0)
    assert report.bandwidth == 1.0
    assert report.p_value == 1.0


def test_mmd_squared_matches_test_statistic():
    rng = np.random.default_rng(15)
    a, b = rng.normal(0, 1, 60), rng.normal(1, 2, 80)
    report = mmd_test(a, b, permutations=10, seed=0)
    assert mmd_squared(a, b) == pytest.approx(report.mmd2, rel=1e-12)


def test_mmd_report_schema():
    rng = np.random.default_rng(16)
    report = mmd_test(rng.normal(0, 1, 30), rng.normal(0, 1, 30), 50, 3)
    schema = json.loads(open("src/synthctl/schemas/mmd_report.schema.json").read())
    jsonschema.validate(report.to_json_dict(), schema)


# Dense reference: the MMD computation the blocked code replaced, with n x n
# kernel and difference matrices (here the observed split is column 0 of the
# same product as the permutations). The blocked code must reproduce its
# bandwidth and p-values exactly.
def dense_median_bandwidth(pooled):
    diffs = np.abs(pooled[:, None] - pooled[None, :])
    iu = np.triu_indices(pooled.shape[0], k=1)
    med = float(np.median(diffs[iu]))
    return med if med > 0 else 1.0


def dense_mmd_stats(a, b, permutations, seed):
    """Statistics of the observed split (entry 0) and each permutation."""
    n_a, n_b = a.shape[0], b.shape[0]
    pooled = np.concatenate([a, b])
    n = n_a + n_b
    h = dense_median_bandwidth(pooled)
    kernel = np.exp(-((pooled[:, None] - pooled[None, :]) ** 2) / (2.0 * h * h))
    rng = np.random.default_rng(seed)
    masks = np.zeros((n, permutations + 1))
    masks[:n_a, 0] = 1.0
    for col in range(1, permutations + 1):
        masks[rng.permutation(n)[:n_a], col] = 1.0
    kz = kernel @ masks
    zb = 1.0 - masks
    kzb = kernel.sum(axis=1)[:, None] - kz
    quad_a = np.einsum("ij,ij->j", masks, kz) - n_a
    quad_b = np.einsum("ij,ij->j", zb, kzb) - n_b
    cross = np.einsum("ij,ij->j", masks, kzb)
    stats = (
        quad_a / (n_a * (n_a - 1))
        + quad_b / (n_b * (n_b - 1))
        - 2.0 * cross / (n_a * n_b)
    )
    return stats, h


@pytest.mark.parametrize(
    "values",
    [
        [1.5, -2.0],  # n = 2: one pair
        [0.0, 3.0, -1.0],  # n = 3: odd pair count
        [4.0, 4.0, -4.0, 1.0],  # n = 4: even pair count, a tie
        [2.0, 2.0, 2.0, 2.0, 7.5],  # duplicates hold the median
        [-5.0, -5.0, -1.0, -3.0, -1.0, -9.0],  # negative values with ties
        [0.1, 0.2, 0.3, 1e-300, -1e-300, 0.0],  # rounding-sensitive differences
        [6.5] * 9,  # constant data: median 0 falls back to 1.0
        [0.0, 1.0, np.inf],  # one infinity: finite median
        [0.0, np.inf, np.inf, 2.0],  # repeated infinity: NaN median, fallback
        [1.0, np.nan, 2.0],  # NaN: NaN median, fallback
    ],
)
def test_median_bandwidth_matches_dense_small(values):
    pooled = np.array(values)
    with np.errstate(invalid="ignore"):
        expected = dense_median_bandwidth(pooled)
    assert _median_bandwidth(pooled) == expected


@pytest.mark.parametrize("n", [17, 18, 200, 201, 1500])
def test_median_bandwidth_matches_dense_bitwise(n):
    # sizes past 8n pairs go through the sampled narrowing rounds; draws from
    # a few values (as bootstrap draws are) leave the median inside a tie
    rng = np.random.default_rng(n)
    cases = [
        rng.normal(0.0, 3.0, n),
        rng.choice(rng.normal(0.0, 1.0, 9), n),
        np.round(rng.normal(-2.0, 1.0, n), 1),
        rng.integers(-3, 3, n).astype(float) * 0.1,
    ]
    for pooled in cases:
        assert _median_bandwidth(pooled) == dense_median_bandwidth(pooled)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=80), st.floats(1e-3, 1e3))
def test_median_bandwidth_property(ints, scale):
    pooled = np.array(ints, dtype=float) * scale
    assert _median_bandwidth(pooled) == dense_median_bandwidth(pooled)


@pytest.mark.parametrize(
    "n_a, n_b, permutations, shift, seeds",
    [(100, 2000, 500, 0.5, (0, 1, 2)), (100, 2000, 500, 0.0, (3,)),
     (200, 200, 200, 0.0, range(5)), (200, 200, 200, 0.3, range(5, 8))],
)
@pytest.mark.parametrize("swap", [False, True])
def test_mmd_test_matches_dense_reference(n_a, n_b, permutations, shift, seeds, swap):
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        a = rng.normal(0.0, 1.0, n_a)
        b = rng.normal(shift, 1.2, n_b)
        if swap:
            a, b = b, a
        stats, h = dense_mmd_stats(a, b, permutations, seed)
        mmd2 = stats[0]
        p = (1 + np.count_nonzero(stats[1:] >= mmd2)) / (permutations + 1)
        report = mmd_test(a, b, permutations=permutations, seed=seed)
        assert report.bandwidth == h
        assert report.p_value == p
        # mmd2 is a difference of kernel averages of size up to 1, so either
        # summation order is exact to a few ulps of 1, not of mmd2 itself:
        # under the null (mmd2 near 0) the relative gap can exceed 1e-12
        assert report.mmd2 == pytest.approx(mmd2, rel=1e-12, abs=1e-14)
        assert mmd_squared(a, b) == pytest.approx(mmd2, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n_a, n_b", [(2, 2), (3, 3), (2, 3), (3, 2), (4, 4)])
def test_mmd_repeated_splits_tie_with_observed(n_a, n_b):
    # with a handful of values, permutations often repeat the observed split
    # or, for equal sample sizes, its mirror; both have the observed
    # statistic exactly and must count as ">= observed"
    rng = np.random.default_rng(100 * n_a + n_b)
    for seed in range(20):
        a, b = rng.normal(0.0, 1.0, n_a), rng.normal(0.5, 1.0, n_b)
        stats, _ = dense_mmd_stats(a, b, 30, seed)
        ties_included = np.count_nonzero(stats[1:] >= stats[0] - 1e-12)
        report = mmd_test(a, b, permutations=30, seed=seed)
        assert report.p_value == (1 + ties_included) / 31


@pytest.mark.parametrize("swap", [False, True])
def test_mmd_test_memory_is_bounded(swap):
    # the dense path needs more than 2 GB here (several 10100 x 10100 arrays)
    rng = np.random.default_rng(44)
    a, b = rng.normal(0.0, 1.0, 100), rng.normal(0.2, 1.0, 10_000)
    if swap:
        a, b = b, a
    tracemalloc.start()
    try:
        report = mmd_test(a, b, permutations=500, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20
    assert 1.0 / 501 <= report.p_value <= 1.0
