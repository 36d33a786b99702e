import io
import json

import numpy as np
import pytest

import jsonschema

from synthctl.conformal import (
    NullSpec,
    _rotation_statistics,
    confidence_interval,
    conformal_p_value,
    default_grid,
    save_p_curve,
)
from synthctl.errors import BadConfigError
from synthctl.estimators import Method, fit_listener, fit_method
from synthctl.moments import MomentConfig
from synthctl.panel import PanelData
from synthctl.simlab import MixtureDgpConfig, gen_mixture_dgp
from synthctl.solver import SolverOptions


def exact_copy_panel(t=12, t0=8, seed=0):
    rng = np.random.default_rng(seed)
    series = rng.normal(0, 1, t)
    other = rng.normal(0, 2, t)
    return PanelData(
        units=("tr", "a", "b"), outcomes=np.vstack([series, series, other]), t0=t0
    )


def test_all_tied_residuals_give_p_one():
    # treated == unit a, so residuals vanish at every period and every
    # rotation ties with the identity
    panel = exact_copy_panel()
    p = conformal_p_value(panel, NullSpec(0.0), Method.DMSCM, MomentConfig(g=2))
    assert p == 1.0


def test_single_post_spike_gives_one_over_t():
    rng = np.random.default_rng(1)
    t, t0 = 10, 9
    series = rng.normal(0, 0.05, t)
    panel = PanelData(
        units=("tr", "a", "b"),
        outcomes=np.vstack([series, series, rng.normal(0, 0.05, t)]),
        t0=t0,
    )
    # a null far from zero makes the single adjusted post residual dominate
    p = conformal_p_value(panel, NullSpec(50.0), Method.DMSCM, MomentConfig(g=2))
    assert p == pytest.approx(1 / 10)


def test_p_values_are_rank_multiples():
    cfg = MixtureDgpConfig(j=4, t0=12, t1=4, k=0, tau=0.0, stationary=True, seed=3)
    panel, _ = gen_mixture_dgp(cfg)
    t = panel.n_periods
    for alpha in (-1.0, 0.0, 2.5):
        p = conformal_p_value(panel, NullSpec(alpha), Method.DMSCM, MomentConfig(g=2))
        assert p * t == pytest.approx(round(p * t))
        assert 1 / t <= p <= 1.0


def test_every_inference_estimator_produces_valid_p():
    cfg = MixtureDgpConfig(j=4, t0=18, t1=6, k=0, tau=0.0, stationary=True, seed=31)
    panel, _ = gen_mixture_dgp(cfg)
    for estimator in (Method.DMSCM, Method.D2MSCM, Method.ABADIE, Method.FP_DEMEANED):
        p = conformal_p_value(panel, NullSpec(0.0), estimator, MomentConfig(g=2))
        assert 1 / panel.n_periods <= p <= 1.0


def test_unconverged_refit_warns():
    # the refit's diagnostics do not travel with the bare p-value; a
    # listener hears of the refit and of its stop before the certificate
    cfg = MixtureDgpConfig(j=4, t0=12, t1=4, k=0, tau=0.0, stationary=True, seed=3)
    panel, _ = gen_mixture_dgp(cfg)
    heard = []
    with fit_listener(lambda *fit: heard.append(fit)):
        p = conformal_p_value(panel, NullSpec(0.0), Method.DMSCM, MomentConfig(g=2),
                              SolverOptions(max_iter=1))
    assert 1 / panel.n_periods <= p <= 1.0
    [(method, system, weights, diagnostics)] = heard
    assert method is Method.DMSCM and system.gamma_orders == (1, 2)
    assert weights.weights.shape == (4,)
    assert diagnostics.iterations == 1 and not diagnostics.converged


def test_vector_null_accepted():
    cfg = MixtureDgpConfig(j=3, t0=10, t1=3, k=0, tau=0.0, stationary=True, seed=5)
    panel, _ = gen_mixture_dgp(cfg)
    p = conformal_p_value(
        panel, NullSpec(np.array([0.0, 1.0, -1.0])), Method.DMSCM, MomentConfig(g=2)
    )
    assert 0 < p <= 1.0
    with pytest.raises(Exception):
        conformal_p_value(panel, NullSpec(np.array([0.0, 1.0])), Method.DMSCM)


def rotation_statistics_loop(abs_resid, t0):
    """The per-rotation loop the windowed sum replaced, kept as the reference."""
    t = abs_resid.shape[0]
    doubled = np.concatenate([abs_resid, abs_resid])
    stats = np.empty(t)
    for j in range(t):
        stats[j] = doubled[t0 + j : t + j].sum() / (t - t0)
    return stats


def test_rotation_statistics_bitwise_equal_to_loop():
    rng = np.random.default_rng(23)
    # T1 = T - T0 covers 1, odd and even values, and lengths past numpy's
    # pairwise-summation block of 8
    for t, t0 in [(2, 1), (9, 8), (12, 5), (12, 6), (40, 11), (300, 150), (301, 27)]:
        for _ in range(5):
            abs_resid = np.abs(rng.standard_normal(t) * rng.exponential(10.0))
            assert np.array_equal(
                _rotation_statistics(abs_resid, t0), rotation_statistics_loop(abs_resid, t0)
            )


def test_rotation_statistic_monotone_in_post_block():
    rng = np.random.default_rng(7)
    abs_resid = np.abs(rng.normal(0, 1, 14))
    t0 = 10
    stats = _rotation_statistics(abs_resid, t0)
    p_before = np.count_nonzero(stats >= stats[0]) / 14
    bigger = abs_resid.copy()
    bigger[t0:] *= 3.0
    stats_b = _rotation_statistics(bigger, t0)
    p_after = np.count_nonzero(stats_b >= stats_b[0]) / 14
    assert p_after <= p_before


def test_determinism():
    cfg = MixtureDgpConfig(j=4, t0=15, t1=5, k=0, tau=0.0, stationary=True, seed=9)
    panel, _ = gen_mixture_dgp(cfg)
    grid = np.linspace(-3, 3, 11)
    r1 = confidence_interval(panel, grid, 0.1, Method.DMSCM, MomentConfig(g=2))
    r2 = confidence_interval(panel, grid, 0.1, Method.DMSCM, MomentConfig(g=2))
    assert r1 == r2


def test_translation_equivariance_of_p_curve():
    cfg = MixtureDgpConfig(j=4, t0=20, t1=6, k=0, tau=0.0, stationary=True, seed=11)
    panel, _ = gen_mixture_dgp(cfg)
    shift = 4.5
    shifted_outcomes = panel.outcomes.copy()
    shifted_outcomes[0, panel.t0 :] += shift
    shifted = PanelData(units=panel.units, outcomes=shifted_outcomes, t0=panel.t0)
    grid = np.linspace(-3, 3, 13)
    base = confidence_interval(panel, grid, 0.1, Method.DMSCM, MomentConfig(g=2))
    check = confidence_interval(shifted, grid + shift, 0.1, Method.DMSCM, MomentConfig(g=2))
    # the whole p-curve moves with the shift: same argmax position, and the
    # curves agree up to rank flips from sub-ulp residual differences
    assert np.argmax(check.p_values) == np.argmax(base.p_values)
    t = panel.n_periods
    assert np.abs(np.asarray(check.p_values) - np.asarray(base.p_values)).max() <= 2 / t


def test_singleton_grid_degenerate_interval():
    panel = exact_copy_panel(seed=13)
    report = confidence_interval(panel, [0.0], 0.1, Method.DMSCM, MomentConfig(g=2))
    assert report.lower == report.upper == 0.0
    assert not report.open_lower and not report.open_upper


def test_grid_edge_flags():
    cfg = MixtureDgpConfig(j=4, t0=20, t1=5, k=0, tau=0.0, stationary=True, seed=14)
    panel, _ = gen_mixture_dgp(cfg)
    narrow = np.linspace(-0.05, 0.05, 3)
    report = confidence_interval(panel, narrow, 0.1, Method.DMSCM, MomentConfig(g=2))
    assert report.open_lower or report.open_upper

    wide = default_grid(panel, fit_method(panel, Method.DMSCM, MomentConfig(g=2)))
    report = confidence_interval(panel, wide, 0.1, Method.DMSCM, MomentConfig(g=2))
    assert report.lower is not None and report.upper is not None
    assert report.lower <= 0.0 <= report.upper


def test_interval_matches_accepted_grid_points():
    cfg = MixtureDgpConfig(j=5, t0=25, t1=6, k=0, tau=0.0, stationary=True, seed=15)
    panel, _ = gen_mixture_dgp(cfg)
    grid = default_grid(panel, fit_method(panel, Method.DMSCM, MomentConfig(g=2)), points=21)
    report = confidence_interval(panel, grid, 0.1, Method.DMSCM, MomentConfig(g=2))
    accepted = [a for a, p in zip(report.grid, report.p_values) if p > 0.1]
    assert report.lower == min(accepted)
    assert report.upper == max(accepted)


def test_level_validation_and_sorted_grid():
    panel = exact_copy_panel(seed=16)
    with pytest.raises(BadConfigError):
        confidence_interval(panel, [0.0], 1.5, Method.DMSCM, MomentConfig(g=2))
    with pytest.raises(BadConfigError):
        confidence_interval(panel, [1.0, 0.0], 0.1, Method.DMSCM, MomentConfig(g=2))
    with pytest.raises(BadConfigError):
        conformal_p_value(panel, NullSpec(0.0), Method.OLS, MomentConfig(g=2))


def test_interval_coverage_under_no_effect():
    # with no true effect, the inverted test's interval should cover zero in
    # the vast majority of panels at the 90% level
    covered = 0
    n_panels = 200
    for r in range(n_panels):
        cfg = MixtureDgpConfig(
            j=6, t0=30, t1=10, k=0, tau=0.0, stationary=True, seed=3000 + r
        )
        panel, _ = gen_mixture_dgp(cfg)
        fit = fit_method(panel, Method.DMSCM, MomentConfig(g=2, scaling="max_abs"))
        grid = default_grid(panel, fit)
        report = confidence_interval(
            panel, grid, 0.10, Method.DMSCM, MomentConfig(g=2, scaling="max_abs")
        )
        if report.lower is not None and report.lower <= 0.0 <= report.upper:
            covered += 1
    assert covered / n_panels >= 0.85


def test_report_serialization():
    panel = exact_copy_panel(seed=17)
    report = confidence_interval(
        panel, np.linspace(-1, 1, 5), 0.2, Method.D2MSCM, MomentConfig(g=2)
    )
    payload = report.to_json_dict()
    schema = json.loads(open("src/synthctl/schemas/conformal_report.schema.json").read())
    jsonschema.validate(payload, schema)
    buf = io.StringIO()
    save_p_curve(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "alpha,p"
    assert len(lines) == 6


def reversed_donors(panel):
    """``panel`` with its donors, and only its donors, in reverse order."""
    return PanelData(units=panel.units[:1] + panel.units[:0:-1],
                     outcomes=np.vstack([panel.outcomes[:1], panel.outcomes[:0:-1]]),
                     t0=panel.t0)


def test_donor_order_leaves_p_values_objectives_and_unique_weights():
    # relabelling the donors permutes the weights and changes nothing else.
    # Objectives agree relative to themselves, or to b'b where an exact
    # moment match leaves them at its rounding. Weights on a flat optimal
    # face (non_unique) are the solver's path's and are not compared
    fits = [(Method.DMSCM, MomentConfig(g=g)) for g in (2, 4, 8)]
    fits.append((Method.ABADIE, MomentConfig()))
    unique = 0
    for seed in range(4):
        panel, _ = gen_mixture_dgp(MixtureDgpConfig(j=6, t0=20, t1=10, k=0, seed=seed))
        flipped = reversed_donors(panel)
        for method, cfg in fits:
            systems = []
            with fit_listener(lambda m, system, w, d: systems.append(system)):
                fit = fit_method(panel, method, cfg)
            b = systems[0].b_vector
            other = fit_method(flipped, method, cfg)
            f, f_other = fit.diagnostics.final_objective, other.diagnostics.final_objective
            assert abs(f - f_other) <= 1e-12 * max(f, b @ b), (seed, method, cfg.g)
            if not (fit.diagnostics.non_unique or other.diagnostics.non_unique):
                unique += 1
                np.testing.assert_allclose(other.weights.weights[::-1], fit.weights.weights,
                                           rtol=0, atol=1e-12)
            grid = default_grid(panel, fit, points=9)
            report = confidence_interval(panel, grid, 0.1, method, cfg)
            assert confidence_interval(flipped, grid, 0.1, method, cfg).p_values == (
                report.p_values), (seed, method, cfg.g)
    # G = 8 and abadie on each panel
    assert unique == 8
