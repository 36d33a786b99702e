import json

import numpy as np
import pytest

import jsonschema

from synthctl import estimators
from synthctl.conformal import confidence_interval
from synthctl.errors import MomentOverflowError, SingularMatrixError
from synthctl.estimators import (
    BiasLimitInput,
    Method,
    fit_listener,
    fit_method,
    fit_ols,
    ls_bias_limit,
)
from synthctl.moments import MomentConfig, MomentSystem
from synthctl.panel import PanelData
from synthctl.simlab import MixtureDgpConfig, figure2_spec, gen_mixture_dgp
from synthctl.seeding import derive_seed
from synthctl.solver import solve_simplex_qp

from conftest import gaussian_mixture_panel

SCHEMA_DIR = "src/synthctl/schemas"


def test_dmscm_degenerate_single_component():
    rng = np.random.default_rng(0)
    series = rng.normal(2, 1.5, 40)
    other = rng.normal(-4, 2, 40)
    third = rng.normal(7, 0.5, 40)
    panel = PanelData(
        units=("tr", "a", "b", "c"),
        outcomes=np.vstack([third, other, series, third]),
        t0=30,
    )
    fit = fit_method(panel, Method.DMSCM, MomentConfig(g=4, scaling="pooled_sd"))
    assert fit.weights.weights[2] >= 0.99
    assert abs(fit.mean_post_att()) < 1e-8


def test_dmscm_single_untreated_unit():
    rng = np.random.default_rng(1)
    outcomes = rng.normal(0, 1, (2, 10))
    panel = PanelData(units=("tr", "a"), outcomes=outcomes, t0=6)
    fit = fit_method(panel, Method.DMSCM, MomentConfig(g=3))
    np.testing.assert_array_equal(fit.weights.weights, [1.0])
    np.testing.assert_array_equal(
        fit.att, panel.treated_outcomes[6:] - panel.untreated_outcomes[0, 6:]
    )


def test_dmscm_recovers_effect_on_mixture_dgp():
    # stationary mixture at large T0: the mean post-period effect estimate
    # lands within one unit of the true effect of 20
    cfg = MixtureDgpConfig(
        j=10, t0=2000, t1=100, k=5, tau=20.0, stationary=True, seed=derive_seed(77, 0, 4)
    )
    panel, truth = gen_mixture_dgp(cfg)
    moments = MomentConfig(g=5, include_covariates=True, scaling="pooled_sd")
    fit = fit_method(panel, Method.DMSCM, moments)
    assert abs(fit.mean_post_att() - 20.0) < 1.0


def test_d2mscm_recovers_intercept_and_null_effect(data_dir):
    from synthctl.panel import PanelSchema, load_panel

    panel = load_panel(
        data_dir / "toy_panel_shifted.csv", PanelSchema(), treated="treated", t0=200
    )
    fit = fit_method(panel, Method.D2MSCM, MomentConfig(g=4, scaling="pooled_sd"))
    assert fit.weights.intercept == pytest.approx(5.0, abs=0.5)
    assert fit.mean_post_att() == pytest.approx(0.0, abs=0.75)


def test_d2mscm_matches_dmscm_without_shift():
    panel = gaussian_mixture_panel(t0=4000, seed=99)
    raw = fit_method(panel, Method.DMSCM, MomentConfig(g=4, scaling="pooled_sd"))
    dem = fit_method(panel, Method.D2MSCM, MomentConfig(g=4, scaling="pooled_sd"))
    assert dem.weights.intercept == pytest.approx(0.0, abs=0.1)
    assert dem.mean_post_att() == pytest.approx(raw.mean_post_att(), abs=0.3)


def test_d2mscm_constant_panels_exact():
    outcomes = np.array(
        [
            [2.0, 2.0, 2.0, 7.0, 7.0],  # constant + tau = 5 after t0
            [3.0, 3.0, 3.0, 3.0, 3.0],
            [5.0, 5.0, 5.0, 5.0, 5.0],
        ]
    )
    panel = PanelData(units=("tr", "a", "b"), outcomes=outcomes, t0=3)
    fit = fit_method(panel, Method.D2MSCM, MomentConfig(g=2, scaling="none"))
    w = fit.weights.weights
    assert fit.weights.intercept == 2.0 - (w[0] * 3.0 + w[1] * 5.0)
    np.testing.assert_array_equal(fit.att, [5.0, 5.0])


def test_abadie_exact_copy():
    rng = np.random.default_rng(3)
    series = rng.normal(1, 2, 20)
    panel = PanelData(
        units=("tr", "a", "b"),
        outcomes=np.vstack([series, rng.normal(0, 1, 20), series]),
        t0=14,
    )
    fit = fit_method(panel, Method.ABADIE)
    assert fit.weights.weights[1] >= 1.0 - 1e-8
    assert fit.pre_fit_rmse < 1e-9


def test_abadie_recovers_noiseless_mean_mixture():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, (3, 25))
    w_star = np.array([0.3, 0.25, 0.45])
    treated = w_star @ x
    panel = PanelData(
        units=("tr", "a", "b", "c"), outcomes=np.vstack([treated, x]), t0=18
    )
    fit = fit_method(panel, Method.ABADIE)
    np.testing.assert_allclose(fit.weights.weights, w_star, atol=1e-7)


def test_abadie_unstable_where_dmscm_identifies():
    # zero-mean components that differ only in variance: level regression
    # cannot pin the weights, higher moments can
    abadie_w, dmscm_w = [], []
    for seed in range(60):
        panel = gaussian_mixture_panel(t0=5000, seed=1000 + seed)
        abadie_w.append(fit_method(panel, Method.ABADIE).weights.weights[0])
        dmscm_w.append(
            fit_method(panel, Method.DMSCM, MomentConfig(g=4, scaling="max_abs"))
            .weights.weights[0]
        )
    abadie_w, dmscm_w = np.array(abadie_w), np.array(dmscm_w)
    assert np.abs(dmscm_w - 0.5).mean() < 0.03
    assert np.abs(abadie_w - 0.5).mean() > 5 * np.abs(dmscm_w - 0.5).mean()


def test_fp_demeaned_absorbs_shift():
    rng = np.random.default_rng(5)
    base = rng.normal(0, 1, 30)
    other = rng.normal(0, 3, 30)
    treated = base + 7.0
    panel = PanelData(
        units=("tr", "a", "b"), outcomes=np.vstack([treated, base, other]), t0=22
    )
    fp = fit_method(panel, Method.FP_DEMEANED)
    assert fp.weights.weights[0] >= 1.0 - 1e-6
    assert abs(fp.mean_post_att()) < 1e-6
    # the level fit cannot absorb the shift
    ab = fit_method(panel, Method.ABADIE)
    assert ab.pre_fit_rmse > 10 * fp.pre_fit_rmse


def test_fp_matches_abadie_on_zero_mean_panel():
    rng = np.random.default_rng(6)
    x = rng.normal(0, 1, (2, 400))
    x = x - x.mean(axis=1, keepdims=True)
    treated = 0.5 * x[0] + 0.5 * x[1] + rng.normal(0, 0.1, 400)
    panel = PanelData(units=("tr", "a", "b"), outcomes=np.vstack([treated, x]), t0=300)
    np.testing.assert_allclose(
        fit_method(panel, Method.FP_DEMEANED).weights.weights,
        fit_method(panel, Method.ABADIE).weights.weights,
        atol=1e-3,
    )


def test_att_identity_exact_for_every_method():
    panel = gaussian_mixture_panel(t0=50, seed=11, t1=8)
    for method in Method:
        fit = fit_method(panel, method, MomentConfig(g=3, scaling="pooled_sd"))
        np.testing.assert_array_equal(
            fit.att,
            panel.treated_outcomes[panel.t0 :] - fit.counterfactual[panel.t0 :],
        )


def test_d2mscm_shift_equivariance():
    panel = gaussian_mixture_panel(t0=800, seed=12)
    shifted_outcomes = panel.outcomes.copy()
    shifted_outcomes[2] += 42.0
    shifted = PanelData(units=panel.units, outcomes=shifted_outcomes, t0=panel.t0)
    cfg = MomentConfig(g=4, scaling="pooled_sd")
    w_base = fit_method(panel, Method.D2MSCM, cfg).weights.weights
    w_shift = fit_method(shifted, Method.D2MSCM, cfg).weights.weights
    np.testing.assert_allclose(w_shift, w_base, atol=1e-6)


def test_ols_fit_result_unconstrained():
    rng = np.random.default_rng(13)
    x = rng.normal(0, 1, (2, 60))
    treated = 2.0 * x[0] - 0.5 * x[1] + rng.normal(0, 0.01, 60)
    panel = PanelData(units=("tr", "a", "b"), outcomes=np.vstack([treated, x]), t0=50)
    fit = fit_ols(panel)
    assert not fit.weights.simplex
    np.testing.assert_allclose(fit.weights.weights, [2.0, -0.5], atol=0.01)


def test_bias_limit_examples():
    # no measurement error: no attenuation
    inp = BiasLimitInput(q_star=np.diag([2.0, 3.0]), sigma=np.zeros((2, 2)),
                         w_star=np.array([0.4, 0.6]))
    np.testing.assert_allclose(ls_bias_limit(inp), [0.4, 0.6])

    inp = BiasLimitInput(q_star=np.eye(2), sigma=np.eye(2), w_star=np.array([0.5, 0.5]))
    np.testing.assert_allclose(ls_bias_limit(inp), [0.25, 0.25])

    inp = BiasLimitInput(q_star=np.array([4.0, 1.0]), sigma=np.array([1.0, 1.0]),
                         w_star=np.array([0.5, 0.5]))
    np.testing.assert_allclose(ls_bias_limit(inp), [0.4, 0.25])


def test_bias_limit_singular():
    inp = BiasLimitInput(q_star=np.zeros((2, 2)), sigma=np.zeros((2, 2)),
                         w_star=np.array([0.5, 0.5]))
    with pytest.raises(SingularMatrixError):
        ls_bias_limit(inp)
    with pytest.raises(SingularMatrixError):
        BiasLimitInput(q_star=np.array([-1.0, 1.0]), sigma=np.array([1.0, 1.0]),
                       w_star=np.array([0.5, 0.5]))


def test_fit_result_serializes_against_schema():
    panel = gaussian_mixture_panel(t0=30, seed=14)
    fit = fit_method(panel, Method.DMSCM, MomentConfig(g=3))
    payload = fit.to_json_dict()
    schema = json.loads(open(f"{SCHEMA_DIR}/fit_result.schema.json").read())
    jsonschema.validate(payload, schema)
    assert payload["schema_version"] == 1
    assert payload["intercept"] is None


def test_fit_method_golden(golden):
    # fit_method with every method on one seeded figure2 panel
    assert set(golden("fits")) == {f"fits/{m.value}" for m in Method}


def test_every_simplex_fit_hands_the_solver_a_moment_system(monkeypatch):
    systems = []

    def spy(system, v, opts):
        systems.append(system)
        return solve_simplex_qp(system, v, opts)

    monkeypatch.setattr(estimators, "solve_simplex_qp", spy)
    panel, _ = gen_mixture_dgp(figure2_spec().dgp_config(5, 3))
    simplex = [m for m in Method if m.simplex]
    for method in simplex:
        fit_method(panel, method)
    assert len(simplex) == len(systems) == 4
    assert all(isinstance(s, MomentSystem) for s in systems)
    assert [s.demeaned for s in systems] == [m.demeaned for m in simplex]


def test_fit_listener_hears_each_fit_once_with_the_objects_it_holds(monkeypatch):
    systems = []

    def spy(system, v, opts):
        systems.append(system)
        return solve_simplex_qp(system, v, opts)

    monkeypatch.setattr(estimators, "solve_simplex_qp", spy)
    panel, _ = gen_mixture_dgp(figure2_spec().dgp_config(5, 3))
    heard, outer = [], []
    with fit_listener(lambda *fit: outer.append(fit)):
        with fit_listener(lambda *fit: heard.append(fit)):
            fits = [fit_method(panel, m) for m in Method]
        report = confidence_interval(panel, [-1.0, 0.0, 1.0], 0.1, Method.D2MSCM)
    assert [h[0] for h in heard] == list(Method)
    # the fit's own system, weights and diagnostics: nothing is copied
    assert all(h[1] is s for h, s in zip(heard[:4], systems)) and heard[4][1] is None
    assert all(h[2] is f.weights and h[3] is f.diagnostics for h, f in zip(heard, fits))
    # each block hears the fits made inside it: the outer one also hears
    # the three conformal refits, the inner one's fits first
    assert len(report.p_values) == 3 and len(systems) == 4 + 3
    assert len(outer) == 5 + 3
    assert all(o[k] is h[k] for o, h in zip(outer, heard) for k in range(4))
    assert [o[0] for o in outer[5:]] == [Method.D2MSCM] * 3
    assert all(o[1] is s for o, s in zip(outer[5:], systems[4:]))


def test_fit_listener_leaves_on_exit_and_hears_no_fit_that_raised():
    panel, _ = gen_mixture_dgp(figure2_spec().dgp_config(5, 3))
    heard = []
    listener = lambda *fit: heard.append(fit)  # noqa: E731
    with pytest.raises(MomentOverflowError):
        with fit_listener(listener):
            fit_method(panel, Method.DMSCM, MomentConfig(g=400, scaling="none"))
    assert heard == []
    fit_method(panel, Method.DMSCM)
    assert heard == [] and estimators._listeners == []
    with fit_listener(listener), fit_listener(listener):
        fit_method(panel, Method.ABADIE)
    # the same listener twice hears each fit twice, then leaves
    assert [h[0] for h in heard] == [Method.ABADIE] * 2
    assert estimators._listeners == []
