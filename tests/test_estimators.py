import hashlib
import json

import numpy as np
import pytest

import jsonschema

from synthctl import estimators
from synthctl.errors import SingularMatrixError
from synthctl.estimators import (
    BiasLimitInput,
    Method,
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


# fit_method on one seeded figure2 panel, recorded before the per-method
# decisions moved into Method, with the polished full-rank fits re-recorded
# when the face polish went to residual form: float.hex of the weights, the
# intercept, a sha256 over float.hex of the counterfactual, pre_fit_rmse,
# and the diagnostics (iterations, final_objective, projected_gradient_norm,
# rank_estimate, converged, non_unique)
FIT_METHOD_GOLDEN = {
    Method.DMSCM: (
        [
            "0x0.0p+0", "0x1.59d5612b8de53p-2", "0x0.0p+0",
            "0x1.03e3b561873ecp-3", "0x0.0p+0", "0x1.bb875d3e87782p-3",
            "0x0.0p+0", "0x0.0p+0", "0x1.467515846abf6p-2",
            "0x0.0p+0",
        ],
        None,
        "234660704e8cfe1d6136da56f7f14e28d84ec44dcb64b2a8b60c257ea4acb9c5",
        "0x1.165b2e0b46aaep+3",
        (128, "0x1.37f62e8df6233p-8", "0x1.0000000000000p-55", 10, True, False),
    ),
    Method.D2MSCM: (
        [
            "0x0.0p+0", "0x1.0a02b47ec801dp-2", "0x0.0p+0",
            "0x1.430f348721ee2p-3", "0x0.0p+0", "0x1.ab2ce27abf0d4p-3",
            "0x0.0p+0", "0x0.0p+0", "0x1.7edf40004780ap-2",
            "0x0.0p+0",
        ],
        "-0x1.0a9ccf4d0b4f8p-1",
        "a2a6fc781c888fdd56f70a425d35ae091ecc78a91354f0a1494539601cda5d5d",
        "0x1.1736a299a18e4p+3",
        (133, "0x1.f30a662bd7fbcp-8", "0x1.0312c00000000p-35", 9, True, True),
    ),
    Method.ABADIE: (
        [
            "0x0.0p+0", "0x1.2b15e5f5521e8p-2", "0x0.0p+0",
            "0x1.c83416b21af10p-3", "0x1.57a5bd823d5c9p-3", "0x0.0p+0",
            "0x1.2011976b7544ap-3", "0x0.0p+0", "0x1.69e8c8758e310p-3",
            "0x0.0p+0",
        ],
        None,
        "ab3bce047542b743e445bfe2c433dadd148e2a9dbc3d8a5f47d5a272713287e1",
        "0x1.091b0febd361ap+3",
        (160, "0x1.128909d2985c4p+6", "0x1.0000000000000p-54", 10, True, False),
    ),
    Method.FP_DEMEANED: (
        [
            "0x0.0p+0", "0x1.2a3e6969878aep-2", "0x0.0p+0",
            "0x1.bc04d289aa6fap-3", "0x1.580d535e3fc45p-3", "0x0.0p+0",
            "0x1.2382879cca923p-3", "0x0.0p+0", "0x1.73ee7fa83c240p-3",
            "0x0.0p+0",
        ],
        "-0x1.14ebb2f094ca0p-3",
        "cc3751d94df0b77eb908c370a99cffd6be94a8e148a381213271359b64be1af0",
        "0x1.0919c37da1814p+3",
        (128, "0x1.12865951dc2fdp+6", "0x1.0000000000000p-55", 10, True, False),
    ),
    Method.OLS: (
        [
            "-0x1.c357580852c00p-2", "0x1.27cba2e93557fp-1", "0x1.63c624cabd8a7p-5",
            "0x1.0f19df9484483p-2", "0x1.9a492ae37f0fep-2", "-0x1.84313ccd0d2d8p-3",
            "0x1.64ec50a35a97fp-2", "0x1.3982689e1af1ep-6", "0x1.1fabfc506ff89p-3",
            "-0x1.e992fb73e83bcp-4",
        ],
        None,
        "f90fd58477a48d55a9dcb660c0e61df75b9ae21606848f7b77928b34547951d0",
        "0x1.f4496fd59bc7ap+2",
        (0, "0x1.e8d778f5b098cp+5", "0x0.0p+0", 10, True, False),
    ),
}


def test_fit_method_golden():
    panel, _ = gen_mixture_dgp(figure2_spec().dgp_config(10, derive_seed(0, 0, 0)))
    cfg = MomentConfig(g=5, include_covariates=True, scaling="max_abs")
    assert set(FIT_METHOD_GOLDEN) == set(Method)
    for method, (weights, intercept, counterfactual, rmse, diag) in FIT_METHOD_GOLDEN.items():
        fit = fit_method(panel, method, cfg)
        w, d = fit.weights, fit.diagnostics
        assert fit.method is method
        assert [float.hex(x) for x in w.weights.tolist()] == weights, method
        assert (None if w.intercept is None else float.hex(w.intercept)) == intercept, method
        digest = hashlib.sha256(
            " ".join(map(float.hex, fit.counterfactual.tolist())).encode()
        ).hexdigest()
        assert digest == counterfactual, method
        assert float.hex(fit.pre_fit_rmse) == rmse, method
        assert (
            d.iterations, float.hex(d.final_objective),
            float.hex(d.projected_gradient_norm), d.rank_estimate, d.converged, d.non_unique,
        ) == diag, method


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
