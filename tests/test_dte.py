import io
import json
import tracemalloc

import numpy as np
import pytest

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from synthctl import dte
from synthctl.dte import (
    _gathers,
    _median_bandwidth,
    bootstrap_counterfactual,
    mmd_squared,
    mmd_test,
    quantiles,
    save_draws,
)
from synthctl.errors import BadConfigError, BadProbError, DimensionMismatchError
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


def test_bootstrap_rejects_weights_off_the_simplex():
    # unconstrained least-squares weights are no probabilities to draw units by
    weights = WeightVector(np.array([0.7, -0.1, 0.4]), simplex=False)
    with pytest.raises(BadConfigError):
        bootstrap_counterfactual(simple_panel(), weights, 10, 0)


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


def median_bandwidth(pooled):
    """``_median_bandwidth`` of a raw sample, reduced as ``mmd_test`` reduces it."""
    return _median_bandwidth(*np.unique(pooled, return_counts=True))


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
        # each permutation draws the positions of the smaller sample
        drawn = rng.choice(n, min(n_a, n_b), replace=False)
        if n_a <= n_b:
            masks[drawn, col] = 1.0
        else:
            masks[:, col] = 1.0
            masks[drawn, col] = 0.0
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
    assert median_bandwidth(pooled) == expected


@pytest.mark.parametrize("n", [17, 18, 200, 201, 1500, 2000])
def test_median_bandwidth_matches_dense_bitwise(n):
    # sizes past 8n pairs go through the sampled narrowing rounds; draws from
    # a few values (as bootstrap draws are) leave the median inside a tie,
    # and 24 values have enough pairs of values for the narrowing rounds too
    rng = np.random.default_rng(n)
    cases = [
        rng.normal(0.0, 3.0, n),
        rng.choice(rng.normal(0.0, 1.0, 9), n),
        rng.choice(rng.normal(0.0, 1.0, 24), n),
        np.round(rng.normal(-2.0, 1.0, n), 1),
        rng.integers(-3, 3, n).astype(float) * 0.1,
    ]
    for pooled in cases:
        assert median_bandwidth(pooled) == dense_median_bandwidth(pooled)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=80), st.floats(1e-3, 1e3))
def test_median_bandwidth_property(ints, scale):
    pooled = np.array(ints, dtype=float) * scale
    assert median_bandwidth(pooled) == dense_median_bandwidth(pooled)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=10, unique=True),
    st.lists(st.integers(0, 9), min_size=2, max_size=300),
)
def test_median_bandwidth_repeats_property(values, picks):
    # at most 10 distinct values, most of them repeated: the zeros within a
    # value and the c_a * c_b copies of each difference must rank as np.median
    # ranks them
    pooled = np.array([values[i % len(values)] for i in picks], dtype=float) / 7.0
    assert median_bandwidth(pooled) == dense_median_bandwidth(pooled)


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


def test_mmd_product_path_scores_equal_splits_alike():
    # the same split at five rows of a product-path batch gets one statistic,
    # bit for bit, on any BLAS kernel. Scored one column per row, 5 of these
    # 200 batches spread it over up to 1.3e-15 with OpenBLAS's SkylakeX kernel.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n_s = int(rng.integers(2, 8))
        u, at, c = np.unique(rng.normal(size=2 * n_s), return_inverse=True,
                             return_counts=True)
        assert not _gathers(2 * n_s, n_s)
        count = int(rng.integers(5, 300))
        splits = np.sort(at[np.argsort(rng.random((count, 2 * n_s)), axis=1)[:, :n_s]],
                         axis=1)
        rows = rng.choice(count, size=5, replace=False)
        splits[rows] = np.sort(at[rng.permutation(2 * n_s)[:n_s]])
        stats = dte._mmd2_splits(u, c, _median_bandwidth(u, c), splits)
        assert len(set(stats[rows].tolist())) == 1, seed


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


# The gather path (within-sample pairs of the smaller sample) runs when
# n_s (n_s - 1) * 100 < n^2; shapes on both sides of that rule.
@pytest.mark.parametrize(
    "n_a, n_b, gathers", [(2, 40, True), (50, 1000, True), (60, 500, False)]
)
@pytest.mark.parametrize("swap", [False, True])
def test_mmd_paths_match_dense_reference(n_a, n_b, gathers, swap):
    assert _gathers(n_a + n_b, min(n_a, n_b)) == gathers
    for seed in range(3):
        rng = np.random.default_rng(2000 + seed)
        a = rng.normal(0.0, 1.0, n_a)
        b = rng.normal(0.3, 1.2, n_b)
        if swap:
            a, b = b, a
        stats, h = dense_mmd_stats(a, b, 300, seed)
        p = (1 + np.count_nonzero(stats[1:] >= stats[0])) / 301
        report = mmd_test(a, b, permutations=300, seed=seed)
        assert report.bandwidth == h
        assert report.p_value == p
        assert report.mmd2 == pytest.approx(stats[0], rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n_s, n_l, seeds", [(2, 20, 10), (3, 25, 120)])
@pytest.mark.parametrize("swap", [False, True])
def test_mmd_gather_path_ties_repeated_splits_with_observed(n_s, n_l, seeds, swap):
    # 2 of 22 values have 231 possible splits for 500 permutations, so the
    # observed split recurs; each recurrence must tie with it exactly. With
    # 3 values the summation order of a split's members matters as well.
    assert _gathers(n_s + n_l, n_s)
    rng = np.random.default_rng(7)
    ties = 0
    for seed in range(seeds):
        a, b = rng.normal(0.0, 1.0, n_s), rng.normal(0.5, 1.0, n_l)
        if swap:
            a, b = b, a
        stats, _ = dense_mmd_stats(a, b, 500, seed)
        ties_included = np.count_nonzero(stats[1:] >= stats[0] - 1e-12)
        ties += ties_included - np.count_nonzero(stats[1:] > stats[0] + 1e-12)
        report = mmd_test(a, b, permutations=500, seed=seed)
        assert report.p_value == (1 + ties_included) / 501
    assert ties >= 10


@pytest.mark.parametrize(
    "n_a, n_b, gathers",
    [(100, 2000, True), (6, 10_000, True), (200, 200, False), (500, 500, False)],
)
def test_mmd_path_choice(monkeypatch, n_a, n_b, gathers):
    calls = []
    within = dte._within_pair_sums

    def spy(x, scale):
        calls.append(x.shape)
        return within(x, scale)

    monkeypatch.setattr(dte, "_within_pair_sums", spy)
    rng = np.random.default_rng(n_a + n_b)
    mmd_test(rng.normal(0.0, 1.0, n_a), rng.normal(0.0, 1.0, n_b), 20, 0)
    assert calls == ([(21, min(n_a, n_b))] if gathers else [])


@pytest.mark.parametrize("n_a, n_b", [(2, 40), (100, 2000), (2000, 100)])
def test_mmd_squared_is_gather_path_statistic_bitwise(n_a, n_b):
    assert _gathers(n_a + n_b, min(n_a, n_b))
    rng = np.random.default_rng(n_a * n_b)
    a, b = rng.normal(0.0, 1.0, n_a), rng.normal(0.4, 1.0, n_b)
    assert mmd_squared(a, b) == mmd_test(a, b, permutations=50, seed=3).mmd2


# mmd_squared scores one split, mmd_test P + 1 of them. The gather path sums
# each split on its own, so the two agree bit for bit; the product path's
# strip @ members rounds differently for 1 column than for P + 1.
@pytest.mark.parametrize(
    "n_a, n_b, gathers",
    [(6, 1000, True), (30, 1000, True), (6, 6, False), (60, 500, False), (200, 200, False)],
)
@pytest.mark.parametrize("swap", [False, True])
def test_mmd_squared_agrees_with_mmd_test_on_both_paths(n_a, n_b, gathers, swap):
    assert _gathers(n_a + n_b, min(n_a, n_b)) == gathers
    for seed in range(4):
        rng = np.random.default_rng(4000 + seed)
        values = rng.normal(0.0, 1.0, 24)
        a = rng.choice(values, n_a) if seed % 2 else rng.normal(0.3, 1.0, n_a)
        b = rng.choice(values, n_b) if seed % 2 else rng.normal(0.0, 1.2, n_b)
        if swap:
            a, b = b, a
        for permutations in (10, 500):
            mmd2 = mmd_test(a, b, permutations=permutations, seed=seed).mmd2
            if gathers:
                assert mmd_squared(a, b) == mmd2
            else:
                assert abs(mmd_squared(a, b) - mmd2) <= 1e-14


@pytest.mark.parametrize("swap", [False, True])
def test_mmd_gather_path_memory(swap):
    # the n x (P + 1) split indicators alone would take 40 MB here
    rng = np.random.default_rng(45)
    a, b = rng.normal(0.0, 1.0, 100), rng.normal(0.2, 1.0, 10_000)
    if swap:
        a, b = b, a
    assert _gathers(10_100, 100)
    tracemalloc.start()
    try:
        mmd_test(a, b, permutations=500, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("swap", [False, True])
def test_mmd_test_peak_is_a_few_strips(swap):
    # 10,100 distinct values: six kernel rows per strip, and 501 splits of
    # 100 values; 2**20-entry strips (8 MiB) peaked at 16.6 MiB here
    rng = np.random.default_rng(47)
    a, b = rng.normal(0.0, 1.0, 100), rng.normal(0.2, 1.0, 10_000)
    if swap:
        a, b = b, a
    tracemalloc.start()
    try:
        mmd_test(a, b, permutations=500, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


# Strips far below the kernel's size: at 256 values, one kernel row per strip
# on the product path and gather blocks of five splits; at 16 values, gather
# blocks of one split, whose pairs alone overfill a strip.
@pytest.mark.parametrize(
    "n_a, n_b, gathers, strip",
    [(60, 500, False, 256), (50, 1000, True, 256), (20, 400, True, 16)],
)
def test_mmd_multi_strip_matches_dense_reference(monkeypatch, n_a, n_b, gathers, strip):
    monkeypatch.setattr(dte, "_STRIP_ELEMS", strip)
    assert _gathers(n_a + n_b, min(n_a, n_b)) == gathers
    rng = np.random.default_rng(5000 + n_a)
    a, b = rng.normal(0.0, 1.0, n_a), rng.normal(0.3, 1.2, n_b)
    stats, h = dense_mmd_stats(a, b, 300, 8)
    report = mmd_test(a, b, permutations=300, seed=8)
    assert report.bandwidth == h
    assert report.p_value == (1 + np.count_nonzero(stats[1:] >= stats[0])) / 301
    assert report.mmd2 == pytest.approx(stats[0], rel=1e-12, abs=1e-14)


# Bootstrap draws repeat the few values of a post-period panel; shapes on
# both sides of the path rule, with observed values apart from the draws'
# values and among them.
@pytest.mark.parametrize(
    "n_a, n_b, gathers", [(6, 1000, True), (30, 1000, True), (60, 500, False), (6, 6, False)]
)
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("swap", [False, True])
def test_mmd_repeated_values_match_dense_reference(n_a, n_b, gathers, shared, swap):
    assert _gathers(n_a + n_b, min(n_a, n_b)) == gathers
    ties = 0
    for seed in range(4):
        rng = np.random.default_rng(3000 + seed)
        values = rng.normal(0.0, 1.0, 24)
        a = rng.choice(values, n_a) if shared else rng.normal(0.3, 1.0, n_a)
        b = rng.choice(values, n_b)
        if swap:
            a, b = b, a
        stats, h = dense_mmd_stats(a, b, 300, seed)
        # splits holding the same values tie exactly, so near-ties count
        ties_included = np.count_nonzero(stats[1:] >= stats[0] - 1e-12)
        ties += ties_included - np.count_nonzero(stats[1:] > stats[0] + 1e-12)
        report = mmd_test(a, b, permutations=300, seed=seed)
        assert report.bandwidth == h
        assert report.p_value == (1 + ties_included) / 301
        # the dense statistic sums within the sample it marks, A; marking
        # the larger sample its own cancellation reaches 2e-14, so mmd2 is
        # held to the dense statistic that marks the smaller one
        small_first = sorted((a, b), key=len)
        mmd2 = dense_mmd_stats(*small_first, 1, seed)[0][0]
        assert report.mmd2 == pytest.approx(mmd2, rel=1e-12, abs=1e-14)
        assert mmd_squared(a, b) == pytest.approx(mmd2, rel=1e-12, abs=1e-14)
    if shared and n_a + n_b == 12:
        assert ties > 0


@pytest.mark.parametrize("swap", [False, True])
def test_mmd_memory_grows_only_with_the_draws(swap):
    # 6 observed values against draws from 24 values: the kernel is 24 x 24,
    # so what grows with L is the pooled sample's own per-position arrays
    rng = np.random.default_rng(46)
    values = rng.normal(0.0, 1.0, 24)
    peaks = {}
    for l in (5000, 20_000):
        a, b = rng.normal(0.3, 1.0, 6), rng.choice(values, l)
        if swap:
            a, b = b, a
        tracemalloc.start()
        try:
            mmd_test(a, b, permutations=500, seed=1)
            _, peaks[l] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # at most eight arrays of 8 bytes per pooled value, plus a fixed 256 KiB
    assert peaks[20_000] - peaks[5000] <= 8 * 8 * 15_000
    assert peaks[20_000] <= 8 * 8 * 20_006 + 2**18
