import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import jsonschema

from synthctl.dte import mmd_test
from synthctl.errors import BadConfigError, SynthctlError
from synthctl.estimators import Method
from synthctl.seeding import derive_seed, splitmix64
from synthctl.simlab import (
    MixtureDgpConfig,
    StudySpec,
    Theorem1Spec,
    _theorem1_buffers,
    _theorem1_panel,
    appendix_d_spec,
    figure2_spec,
    gen_mixture_dgp,
    run_replication_study,
    sample_true_post_mixture,
    theorem1_experiment,
)

from conftest import recorder


def test_seed_derivation_properties():
    assert splitmix64(0) == splitmix64(0)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(1, 2, 0)
    assert 0 <= derive_seed(2**63, 5, 7) < 2**64


def test_generator_deterministic():
    cfg = MixtureDgpConfig(j=10, t0=20, t1=10, seed=77)
    p1, t1 = gen_mixture_dgp(cfg)
    p2, t2 = gen_mixture_dgp(cfg)
    assert np.array_equal(p1.outcomes, p2.outcomes)
    assert np.array_equal(p1.covariates, p2.covariates)
    assert np.array_equal(t1.w_star, t2.w_star)


def test_generator_shapes_and_truth():
    cfg = MixtureDgpConfig(j=4, t0=10, t1=5, k=3, seed=1)
    panel, truth = gen_mixture_dgp(cfg)
    assert panel.n_untreated == 4
    assert panel.n_periods == 15
    assert panel.covariates.shape == (5, 15, 3)
    assert truth.means.shape == (4, 15, 4)
    assert truth.w_star.sum() == pytest.approx(1.0)
    assert truth.w_star.min() >= 0


def test_no_effect_panel_matches_mixture_distribution():
    cfg = MixtureDgpConfig(j=3, t0=400, t1=400, k=0, tau=0.0, stationary=True, seed=5)
    panel, truth = gen_mixture_dgp(cfg)
    fresh = sample_true_post_mixture(truth, cfg.t0, 400, seed=99)
    report = mmd_test(panel.treated_outcomes[cfg.t0 :], fresh, permutations=200, seed=3)
    assert report.p_value > 0.05


def test_variance_floor_increment_mode():
    cfg = MixtureDgpConfig(j=6, t0=30, t1=20, var_floor_mode="increment", seed=8)
    _, truth = gen_mixture_dgp(cfg)
    outcome_vars = truth.variances[:, :, 0]
    assert outcome_vars[:, 0].min() >= 1.0
    steps = np.diff(outcome_vars, axis=1)
    assert steps.min() >= 0.1 - 1e-12


def test_variance_floor_level_mode():
    cfg = MixtureDgpConfig(j=6, t0=30, t1=20, var_floor_mode="level", seed=8)
    _, truth = gen_mixture_dgp(cfg)
    outcome_vars = truth.variances[:, :, 0]
    assert outcome_vars.min() >= 0.1 - 1e-12
    # unlike increment mode, variances are allowed to fall
    assert np.diff(outcome_vars, axis=1).min() < 0.0


def test_covariate_parameters_time_invariant():
    cfg = MixtureDgpConfig(j=3, t0=15, t1=5, k=4, seed=12)
    _, truth = gen_mixture_dgp(cfg)
    for k in range(1, 5):
        assert np.ptp(truth.means[:, :, k], axis=1).max() == 0.0
        assert np.ptp(truth.variances[:, :, k], axis=1).max() == 0.0


def test_treated_mean_matches_mixture_mean():
    cfg = MixtureDgpConfig(j=3, t0=20000, t1=10, k=0, tau=0.0, stationary=True, seed=21)
    panel, truth = gen_mixture_dgp(cfg)
    pre = panel.treated_outcomes[: cfg.t0]
    population_mean = float(truth.w_star @ truth.means[:, 0, 0])
    mix_var = float(
        truth.w_star @ (truth.variances[:, 0, 0] + truth.means[:, 0, 0] ** 2)
        - population_mean**2
    )
    se = np.sqrt(mix_var / cfg.t0)
    assert abs(pre.mean() - population_mean) <= 4 * se


def test_replication_study_reproduces_golden_record(golden):
    golden("studies/replication")


def test_study_over_two_j_and_two_g_is_deterministic():
    spec = StudySpec(
        j_values=(2, 4),
        g_values=(2, 3),
        replications=3,
        t0=10,
        t1=5,
        k=0,
        base_seed=9,
    )
    first = run_replication_study(spec)
    second = run_replication_study(spec)
    strip = lambda rec: (rec.j, rec.g, rec.method, rec.replication, rec.seed,
                         rec.att_error, rec.mean_att_error, rec.weight_error)
    assert [strip(r) for r in first.records] == [strip(r) for r in second.records]
    assert first.aggregates_json_dict() == second.aggregates_json_dict()


def test_aggregates_recomputable_from_records():
    result = run_replication_study(
        StudySpec(j_values=(3,), g_values=(2,), replications=5, t0=10, t1=4, k=0, base_seed=2)
    )
    for agg in result.aggregates:
        vals = [
            r.att_error
            for r in result.records
            if (r.j, r.g, r.method) == (agg.j, agg.g, agg.method) and r.error is None
        ]
        assert agg.quartiles["att_error"]["median"] == float(np.median(vals))
        assert agg.quartiles["att_error"]["q25"] == float(np.quantile(vals, 0.25))
        assert agg.quartiles["att_error"]["q75"] == float(np.quantile(vals, 0.75))
        assert agg.n == len(vals)


def test_study_tolerates_sparse_failures(monkeypatch):
    import synthctl.simlab as simlab

    real = simlab.fit_method
    calls = {"n": 0}

    def flaky(panel, method, cfg, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SynthctlError("synthetic failure")
        return real(panel, method, cfg, *args, **kwargs)

    monkeypatch.setattr(simlab, "fit_method", flaky)
    spec = StudySpec(
        j_values=(3,), g_values=(2,), methods=(Method.DMSCM,),
        replications=12, t0=10, t1=4, k=0, base_seed=4,
    )
    result = run_replication_study(spec)
    failed = [r for r in result.records if r.error is not None]
    assert len(failed) == 1
    assert result.aggregates[0].n == 11


def test_study_fails_above_ten_percent(monkeypatch):
    import synthctl.simlab as simlab

    def broken(panel, method, cfg, *args, **kwargs):
        raise SynthctlError("always down")

    monkeypatch.setattr(simlab, "fit_method", broken)
    spec = StudySpec(
        j_values=(3,), g_values=(2,), methods=(Method.DMSCM,),
        replications=5, t0=10, t1=4, k=0, base_seed=4,
    )
    with pytest.raises(SynthctlError):
        run_replication_study(spec)


def test_records_and_figure_csv_output():
    result = run_replication_study(recorder.replication_spec())
    buf = io.StringIO()
    result.save_records_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("j,g,method,replication,seed,att_error")
    assert len(lines) == 1 + len(result.records)

    buf = io.StringIO()
    result.save_figure_csv(buf)
    fig_lines = buf.getvalue().strip().splitlines()
    assert fig_lines[0] == "x,j,method,median,q25,q75"
    xs = {line.split(",")[0] for line in fig_lines[1:]}
    assert xs == {"2", "4"}  # x axis is g for the default spec

    schema = json.loads(open("src/synthctl/schemas/simulation_aggregates.schema.json").read())
    jsonschema.validate(result.aggregates_json_dict(), schema)


def test_appendix_d_spec_varies_j():
    spec = appendix_d_spec(replications=1, j_values=(1, 5), g_values=(2,))
    assert spec.x_axis == "j"
    result = run_replication_study(spec)
    buf = io.StringIO()
    result.save_figure_csv(buf)
    xs = {line.split(",")[0] for line in buf.getvalue().strip().splitlines()[1:]}
    assert xs == {"1", "5"}


def test_compute_mmd_records_values():
    spec = StudySpec(
        j_values=(3,), g_values=(2,), methods=(Method.DMSCM,), replications=2,
        t0=15, t1=20, k=0, base_seed=6, compute_mmd=True,
    )
    result = run_replication_study(spec)
    assert all(r.mmd_to_truth is not None for r in result.records)


def test_study_rejects_mmd_without_simplex_weights():
    StudySpec(methods=(Method.DMSCM, Method.OLS))
    with pytest.raises(BadConfigError):
        StudySpec(methods=(Method.DMSCM, Method.OLS), compute_mmd=True)


@pytest.mark.parametrize(
    "overrides",
    [
        {"j_values": ()},
        {"g_values": ()},
        {"methods": ()},
        {"j_values": (3, 0)},
        {"t0": 1},
        {"t1": 0},
        {"k": -1},
        {"var_floor": 0.0},
        {"var_floor_mode": "never"},
        {"g_values": (2, 0)},
        {"tau": math.nan},
        {"tau": math.inf},
        {"var_floor": math.nan},
        {"var_floor": math.inf},
        {"drift_var": -5.0},
        {"drift_var": math.nan},
        {"drift_var": math.inf},
    ],
)
def test_study_spec_rejects_bad_cell_settings(overrides):
    # a bad setting fails when the spec is built, not in the middle of the run
    with pytest.raises(BadConfigError):
        StudySpec(**overrides)


def test_theorem1_no_noise_recovers_weights():
    spec = Theorem1Spec(
        w_star=(0.5, 0.5),
        q_diag=(4.0, 1.0),
        sigma_diag=(0.0, 0.0),
        t0_large=200_000,
        seed=5,
        replications=200,
        g=2,
    )
    res = theorem1_experiment(spec)
    np.testing.assert_allclose(res["ols_mean"], [0.5, 0.5], atol=1e-3)
    np.testing.assert_allclose(res["gmm_mean"], [0.5, 0.5], atol=1e-3)
    np.testing.assert_allclose(res["predicted_limit"], [0.5, 0.5])


def test_theorem1_halving_noise_shrinks_bias():
    base = Theorem1Spec(t0_large=20_000, seed=3, replications=30)
    halved = Theorem1Spec(
        sigma_diag=(0.5, 0.5), t0_large=20_000, seed=3, replications=30
    )
    res_full = theorem1_experiment(base)
    res_half = theorem1_experiment(halved)
    w = np.array(base.w_star)
    err_full = np.abs(np.array(res_full["ols_mean"]) - w).max()
    err_half = np.abs(np.array(res_half["ols_mean"]) - w).max()
    assert err_half < err_full


@pytest.mark.parametrize("replications", [0, -1])
def test_theorem1_needs_a_replication(replications):
    with pytest.raises(BadConfigError, match="at least one replication"):
        Theorem1Spec(replications=replications)


def reference_theorem1_outcomes(spec: Theorem1Spec, seed: int) -> np.ndarray:
    """The broadcast-draw theorem1 generator, kept verbatim as the reference."""
    rng = np.random.default_rng(seed)
    j = len(spec.w_star)
    t = spec.t0_large + 1  # one throwaway post period
    w = np.asarray(spec.w_star)
    q = np.asarray(spec.q_diag)
    s = np.asarray(spec.sigma_diag)
    # unit j's mean distribution: a centered gamma with unit-specific shape
    # and alternating skew sign, scaled to variance q_j; distinct shapes keep
    # the mixture components apart
    shapes = np.arange(1.0, j + 1.0)
    signs = np.where(np.arange(j) % 2 == 0, 1.0, -1.0)
    gam = rng.gamma(shape=shapes[:, None], scale=1.0, size=(j, t))
    mu = (
        signs[:, None]
        * (gam - shapes[:, None])
        / np.sqrt(shapes)[:, None]
        * np.sqrt(q)[:, None]
    )
    noise = np.sqrt(s)[:, None] * rng.standard_normal((j, t))
    untreated = mu + noise
    cum = np.cumsum(w / w.sum())
    cum[-1] = 1.0
    comp = np.searchsorted(cum, rng.random(t), side="right")
    comp = np.minimum(comp, j - 1)
    treated = mu[comp, np.arange(t)] + np.sqrt(s[comp]) * rng.standard_normal(t)
    return np.vstack([treated[None, :], untreated])


def theorem1_reference_specs():
    rng = np.random.default_rng(2024)
    for j in (1, 2, 3, 5):
        for t0_large in (50, 100_000):
            yield Theorem1Spec(
                w_star=(1.0 / j,) * j,
                q_diag=(1.0,) * j,
                sigma_diag=(1.0,) * j,
                t0_large=t0_large,
            )
            # unequal weights (one of them zero), variances and noise scales
            w = rng.uniform(size=j)
            if j > 1:
                w[-1] = 0.0
            yield Theorem1Spec(
                w_star=tuple(w),
                q_diag=tuple(rng.uniform(0.1, 4.0, size=j)),
                sigma_diag=tuple(rng.uniform(0.1, 2.0, size=j)),
                t0_large=t0_large,
            )
            # no noise: every zero's sign must match too
            yield Theorem1Spec(
                w_star=tuple(rng.uniform(size=j)),
                q_diag=tuple(rng.uniform(0.1, 4.0, size=j)),
                sigma_diag=(0.0,) * j,
                t0_large=t0_large,
            )


@pytest.mark.parametrize("spec", list(theorem1_reference_specs()))
def test_theorem1_panel_matches_reference_bit_for_bit(spec):
    for seed in (0, 1, derive_seed(7, 3)):
        got = _theorem1_panel(spec, seed).outcomes
        want = reference_theorem1_outcomes(spec, seed)
        assert got.shape == want.shape
        # compared as bit patterns, so -0.0 and 0.0 differ
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_theorem1_draw_peak_is_bounded():
    # one Theorem1Spec() draw into reused buffers: the panel's T-length
    # uniforms, component index and gathers took 2.29 MiB; now the index
    # (one byte a period) and PanelData's finiteness check span the panel
    spec = Theorem1Spec()
    buffers = _theorem1_buffers(spec)
    _theorem1_panel(spec, 1, buffers)
    tracemalloc.start()
    try:
        _theorem1_panel(spec, 2, buffers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**19


def test_theorem1_experiment_peak_is_its_buffers():
    # beyond the two reused draw buffers (4.0 MB), a FitResult's T-length
    # counterfactual, effect and pre-period gap per moment-matching fit
    # peaked at 5.60 MB; the weights alone peak at 4.61 MB
    spec = Theorem1Spec(replications=2)
    buffers = sum(b.nbytes for b in _theorem1_buffers(spec))
    theorem1_experiment(spec)
    tracemalloc.start()
    try:
        theorem1_experiment(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= buffers + 2**20


def test_theorem1_experiment_golden(golden):
    golden("studies/theorem1")


@pytest.mark.parametrize(
    "overrides",
    [
        {"w_star": (0.0, 0.0)},
        {"w_star": (0.7, -0.2)},
        {"w_star": (float("nan"), 1.0)},
        {"w_star": (float("inf"), 1.0)},
        {"w_star": (1e308, 1e308)},
        {"q_diag": (1.0, -1.0)},
        {"q_diag": (float("nan"), 1.0)},
        {"sigma_diag": (-0.5, 1.0)},
        {"sigma_diag": (1.0, float("inf"))},
        {"g": 0},
    ],
)
def test_theorem1_rejects_invalid_spec(overrides):
    with pytest.raises(BadConfigError):
        Theorem1Spec(**overrides)


def test_theorem1_result_schema():
    res = theorem1_experiment(Theorem1Spec(t0_large=2_000, replications=3))
    schema = json.loads(open("src/synthctl/schemas/theorem1_result.schema.json").read())
    jsonschema.validate(res, schema)


def test_figure2_spec_defaults():
    spec = figure2_spec(replications=7, base_seed=3)
    assert spec.j_values == (10,)
    assert spec.g_values == (2, 5, 10)
    assert spec.replications == 7
    assert Method.DMSCM in spec.methods and Method.ABADIE in spec.methods
    assert spec.t0 == 30 and spec.t1 == 100 and spec.k == 5


def test_figure_axis_follows_the_j_grid():
    assert StudySpec().x_axis == "g"
    assert appendix_d_spec(j_values=(5,)).x_axis == "g"
    assert figure2_spec(j_values=(3, 5)).x_axis == "j"


def test_presets_are_overrides_of_the_defaults():
    assert figure2_spec() == StudySpec()
    assert figure2_spec(replications=3, base_seed=4, t1=50) == StudySpec(
        replications=3, base_seed=4, t1=50
    )
    # appendixD names only its grids and T1, and an override still wins
    spec = appendix_d_spec(replications=2, t1=40, g_values=(3,))
    assert spec == StudySpec(
        j_values=(1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
        g_values=(3,),
        replications=2,
        t1=40,
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {"j_values": (3, 5, 3)},
        {"g_values": (2, 2)},
        {"methods": (Method.DMSCM, Method.ABADIE, Method.DMSCM)},
        {"methods": ("abadie", Method.ABADIE)},
    ],
)
def test_study_spec_rejects_repeated_grid_values(overrides):
    # a repeated value would run its cell twice and count each replication twice
    with pytest.raises(BadConfigError, match="repeats a value"):
        StudySpec(**overrides)
