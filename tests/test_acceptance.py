"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated at run time.

Criterion 1 is known-red: the weight-recovery threshold sits below what the
specified data-generating process can deliver at T0=2000 (see the analysis
in the test body). It is implemented as stated and allowed to fail rather
than loosened.
"""

import io
import time

import numpy as np
from synthctl.conformal import NullSpec, conformal_p_value
from synthctl.dte import bootstrap_counterfactual, mmd_test
from synthctl.estimators import Method, fit_method
from synthctl.moments import MomentConfig, MomentSystem, build_system, gmm_objective
from synthctl.panel import PanelData
from synthctl.seeding import derive_seed
from synthctl.simlab import (
    MixtureDgpConfig,
    StudySpec,
    Theorem1Spec,
    figure2_spec,
    gen_mixture_dgp,
    run_replication_study,
    theorem1_experiment,
)
from synthctl.solver import WeightVector, project_simplex, solve_simplex_qp

from conftest import gaussian_mixture_panel


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_1_consistency():
    """Median weight error of the moment-matching fit at T0=2000.

    Known-red. Evidence gathered while building this suite:
      * with orders 1..5 alone the moment system has rank 5 < J=10, so the
        covariate rows are required for the rank condition at all;
      * the returned weights match an independent exact QP solution of the
        same empirical system to 4+ decimals, ruling out solver error;
      * the error does shrink with T0 (median 0.069 at 2000, 0.026 at 32000
        in side experiments), confirming consistency, but at T0=2000 the
        median sits near 0.07 for every faithful reading of the generator
        (variance floored at the level or on the increments, drift read as
        variance or sd), and an oracle-weighted fit does no better, so the
        0.05 threshold is below the information available at this sample
        size.
    """
    start = time.time()
    errors = []
    for r in range(50):
        cfg = MixtureDgpConfig(
            j=10, t0=2000, t1=10, k=5, seed=derive_seed(0, 0, r)
        )
        panel, truth = gen_mixture_dgp(cfg)
        fit = fit_method(
            panel,
            Method.DMSCM,
            MomentConfig(g=5, include_covariates=True, scaling="pooled_sd"),
        )
        errors.append(float(np.abs(fit.weights.weights - truth.w_star).max()))
    elapsed = time.time() - start
    median = float(np.median(errors))
    passed = median < 0.05 and elapsed < 120
    _report(
        "criterion 1 (consistency)",
        passed,
        f"median weight error {median:.4f} vs < 0.05, {elapsed:.0f}s vs < 120s",
    )
    assert elapsed < 120
    assert median < 0.05, (
        f"known spec calibration defect: median {median:.4f} >= 0.05; "
        "see docstring and the decisions ledger"
    )


def test_criterion_2_implicit_endogeneity():
    start = time.time()
    spec = Theorem1Spec(
        w_star=(0.5, 0.5),
        q_diag=(1.0, 1.0),
        sigma_diag=(1.0, 1.0),
        t0_large=100_000,
        seed=0,
        replications=200,
        g=4,
    )
    res = theorem1_experiment(spec)
    elapsed = time.time() - start
    ols_err = float(np.abs(np.array(res["ols_mean"]) - np.array([0.25, 0.25])).max())
    lim_err = float(np.abs(np.array(res["predicted_limit"]) - np.array([0.25, 0.25])).max())
    gmm_err = float(np.abs(np.array(res["gmm_mean"]) - np.array([0.5, 0.5])).max())
    passed = ols_err < 0.02 and gmm_err < 0.02 and lim_err < 1e-12 and elapsed < 60
    _report(
        "criterion 2 (implicit endogeneity)",
        passed,
        f"ols within {ols_err:.4f}, gmm within {gmm_err:.4f} vs < 0.02, {elapsed:.0f}s vs < 60s",
    )
    assert lim_err < 1e-12
    assert ols_err < 0.02
    assert gmm_err < 0.02
    assert elapsed < 60


def test_criterion_3_figure2_direction():
    start = time.time()
    result = run_replication_study(figure2_spec(replications=100, base_seed=0))
    elapsed = time.time() - start
    med = {
        (a.g, a.method): a.mean_att_error_median for a in result.aggregates
    }
    beats = {
        g: med[(g, Method.DMSCM)] < med[(g, Method.ABADIE)] for g in (2, 5, 10)
    }
    # the monotonicity clause carries the documented +-10% slack
    monotone = med[(10, Method.DMSCM)] <= 1.10 * med[(2, Method.DMSCM)]
    passed = all(beats.values()) and monotone and elapsed < 600
    detail = ", ".join(
        f"G={g}: {med[(g, Method.DMSCM)]:.2f} vs {med[(g, Method.ABADIE)]:.2f}"
        for g in (2, 5, 10)
    )
    _report(
        "criterion 3 (figure-2 direction)",
        passed,
        f"{detail}; G10<=1.1*G2 {monotone}, {elapsed:.0f}s vs < 600s",
    )
    assert all(beats.values()), f"dmscm must beat abadie at every G: {med}"
    assert monotone
    assert elapsed < 600


def test_criterion_4_uniqueness_remark():
    # two zero-mean normal components with variances 1 and 4, even mixture
    errors = []
    for r in range(15):
        panel = gaussian_mixture_panel(t0=5000, seed=derive_seed(4, 0, r))
        fit = fit_method(panel, Method.DMSCM, MomentConfig(g=4, scaling="max_abs"))
        errors.append(float(np.abs(fit.weights.weights - 0.5).max()))
    median = float(np.median(errors))

    # first moments alone cannot separate the components: the solver must
    # flag non-uniqueness on the empirical one-row system
    panel = gaussian_mixture_panel(t0=5000, seed=derive_seed(4, 1, 0))
    empirical = build_system(panel, MomentConfig(g=1, scaling="pooled_sd"))
    _, diag_emp = solve_simplex_qp(empirical)

    # and on the population system (both means are exactly zero) the
    # objective is flat: the reported point and the true mixture tie
    population = MomentSystem(
        a_matrix=np.zeros((1, 2)),
        b_vector=np.zeros(1),
        gamma_orders=(1,),
        scale=1.0,
        demeaned=False,
    )
    w_pop, diag_pop = solve_simplex_qp(population)
    gap = abs(
        gmm_objective(population, None, w_pop.weights)
        - gmm_objective(population, None, np.array([0.5, 0.5]))
    )
    passed = (
        median < 0.03 and diag_emp.non_unique and diag_pop.non_unique and gap < 1e-8
    )
    _report(
        "criterion 4 (uniqueness remark)",
        passed,
        f"median weight error {median:.4f} vs < 0.03; non-unique flags "
        f"{diag_emp.non_unique}/{diag_pop.non_unique}; objective gap {gap:.1e} vs < 1e-8",
    )
    assert median < 0.03
    assert diag_emp.non_unique
    assert diag_pop.non_unique
    assert gap < 1e-8


def test_criterion_5_conformal_validity():
    start = time.time()
    n_panels = 500
    rejections = 0
    all_rank_multiples = True
    for r in range(n_panels):
        cfg = MixtureDgpConfig(
            j=10, t0=30, t1=10, k=0, tau=0.0, stationary=True,
            seed=derive_seed(5, 0, r),
        )
        panel, _ = gen_mixture_dgp(cfg)
        p = conformal_p_value(
            panel, NullSpec(0.0), Method.DMSCM, MomentConfig(g=2, scaling="max_abs")
        )
        t = panel.n_periods
        if abs(p * t - round(p * t)) > 1e-9:
            all_rank_multiples = False
        if p <= 0.10:
            rejections += 1
    elapsed = time.time() - start
    rate = rejections / n_panels
    passed = 0.05 <= rate <= 0.15 and all_rank_multiples and elapsed < 900
    _report(
        "criterion 5 (conformal validity)",
        passed,
        f"rejection rate {rate:.3f} vs [0.05, 0.15]; exact 1/T multiples "
        f"{all_rank_multiples}; {elapsed:.0f}s vs < 900s",
    )
    assert 0.05 <= rate <= 0.15
    assert all_rank_multiples
    assert elapsed < 900


def test_criterion_6_bootstrap_dte():
    rng = np.random.default_rng(9)
    outcomes = rng.normal(5.0, 2.0, size=(3, 20))
    panel = PanelData(units=("tr", "a", "b"), outcomes=outcomes, t0=10)
    weights = WeightVector(np.array([0.3, 0.7]))
    sample = bootstrap_counterfactual(panel, weights, 100_000, seed=11)
    post = panel.untreated_outcomes[:, panel.t0 :]
    target = 0.3 * post[0].mean() + 0.7 * post[1].mean()
    se = sample.draws.std() / np.sqrt(sample.l)
    dev = abs(sample.draws.mean() - target)
    membership = set(sample.draws.tolist()) <= set(post.ravel().tolist())
    passed = dev <= 3 * se and membership
    _report(
        "criterion 6 (bootstrap DTE)",
        passed,
        f"|mean - target| = {dev:.5f} vs 3*se = {3 * se:.5f}; support check {membership}",
    )
    assert dev <= 3 * se
    assert membership


def test_criterion_7_mmd_calibration():
    start = time.time()
    size_rejections = 0
    reps = 1000
    for r in range(reps):
        rng = np.random.default_rng(derive_seed(7, 0, r))
        a = rng.normal(0.0, 1.0, 200)
        b = rng.normal(0.0, 1.0, 200)
        if mmd_test(a, b, permutations=200, seed=r).p_value <= 0.05:
            size_rejections += 1
    size = size_rejections / reps

    power_rejections = 0
    for r in range(100):
        rng = np.random.default_rng(derive_seed(7, 1, r))
        a = rng.normal(0.0, 1.0, 200)
        b = rng.normal(5.0, 1.0, 200)
        if mmd_test(a, b, permutations=200, seed=r).p_value <= 0.05:
            power_rejections += 1
    power = power_rejections / 100
    elapsed = time.time() - start
    passed = 0.03 <= size <= 0.08 and power >= 0.99
    _report(
        "criterion 7 (MMD calibration)",
        passed,
        f"size {size:.3f} vs [0.03, 0.08]; power {power:.2f} vs >= 0.99; {elapsed:.0f}s",
    )
    assert 0.03 <= size <= 0.08
    assert power >= 0.99


def test_criterion_8_property_suites():
    rng = np.random.default_rng(8)
    checks = {}

    # simplex projection: exact idempotence and grid agreement
    ok = True
    for _ in range(200):
        v = rng.normal(0, 3, rng.integers(1, 8))
        w = project_simplex(v)
        ok &= bool(np.array_equal(w, project_simplex(w)))
        ok &= w.min() >= 0.0 and w.sum() == 1.0
    step = 1e-4
    grid = np.arange(0.0, 1.0 + step, step)
    pts = np.column_stack([grid, 1.0 - grid])
    for _ in range(50):
        v = rng.normal(0, 2, 2)
        w = project_simplex(v)
        best = ((pts - v) ** 2).sum(axis=1).min()
        ok &= ((w - v) ** 2).sum() <= best + 1e-12
    checks["projection"] = ok

    # moment-system linearity and scale equivariance
    ok = True
    outcomes = rng.normal(1, 4, (4, 12))
    panel = PanelData(units=("tr", "a", "b", "c"), outcomes=outcomes, t0=9)
    cfg = MomentConfig(g=4, scaling="pooled_sd")
    system = build_system(panel, cfg)
    w = rng.dirichlet(np.ones(3))
    scaled = outcomes[:, :9] / system.scale
    direct = np.array(
        [
            np.mean(scaled[0] ** k)
            - sum(w[i] * np.mean(scaled[1 + i] ** k) for i in range(3))
            for k in range(1, 5)
        ]
    )
    ok &= bool(np.allclose(system.discrepancy(w), direct, rtol=1e-12, atol=1e-12))
    doubled = PanelData(units=panel.units, outcomes=2.0 * outcomes, t0=9)
    sys2 = build_system(doubled, cfg)
    ok &= bool(np.allclose(sys2.a_matrix, system.a_matrix, rtol=1e-12, atol=1e-12))
    ok &= bool(np.allclose(sys2.b_vector, system.b_vector, rtol=1e-12, atol=1e-12))
    checks["moment system"] = ok

    # demeaned first moments vanish
    from synthctl.moments import build_demeaned_system

    dm = build_demeaned_system(panel, MomentConfig(g=3, scaling="none"))
    checks["demeaned first moment"] = bool(
        np.abs(dm.a_matrix[0]).max() < 1e-10 and abs(dm.b_vector[0]) < 1e-10
    )

    # ATT identity for every method
    mix_panel = gaussian_mixture_panel(t0=60, seed=18, t1=6)
    ok = True
    for method in Method:
        fit = fit_method(mix_panel, method, MomentConfig(g=3))
        ok &= bool(
            np.array_equal(
                fit.att,
                mix_panel.treated_outcomes[60:] - fit.counterfactual[60:],
            )
        )
    checks["att identity"] = ok

    # demeaned-fit shift equivariance
    base = gaussian_mixture_panel(t0=900, seed=19)
    shifted_outcomes = base.outcomes.copy()
    shifted_outcomes[1] += 13.0
    shifted = PanelData(units=base.units, outcomes=shifted_outcomes, t0=base.t0)
    w_a = fit_method(base, Method.D2MSCM, MomentConfig(g=4)).weights.weights
    w_b = fit_method(shifted, Method.D2MSCM, MomentConfig(g=4)).weights.weights
    checks["shift equivariance"] = bool(np.allclose(w_a, w_b, atol=1e-6))

    # seed determinism of fit, dte, and simulate
    cfg_dgp = MixtureDgpConfig(j=4, t0=25, t1=8, k=0, seed=55)
    p1, _ = gen_mixture_dgp(cfg_dgp)
    p2, _ = gen_mixture_dgp(cfg_dgp)
    f1 = fit_method(p1, Method.DMSCM, MomentConfig(g=3))
    f2 = fit_method(p2, Method.DMSCM, MomentConfig(g=3))
    det = bool(np.array_equal(f1.weights.weights, f2.weights.weights))
    s1 = bootstrap_counterfactual(p1, f1.weights, 500, seed=6)
    s2 = bootstrap_counterfactual(p2, f2.weights, 500, seed=6)
    det &= bool(np.array_equal(s1.draws, s2.draws))
    spec = StudySpec(
        j_values=(3,), g_values=(2,), replications=2, t0=10, t1=4, k=0, base_seed=61
    )
    r1 = run_replication_study(spec)
    r2 = run_replication_study(spec)
    buf1, buf2 = io.StringIO(), io.StringIO()
    r1.save_records_csv(buf1)
    r2.save_records_csv(buf2)
    det &= buf1.getvalue() == buf2.getvalue()
    checks["seed determinism"] = det

    passed = all(checks.values())
    _report(
        "criterion 8 (property suites)",
        passed,
        "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()),
    )
    assert all(checks.values()), checks
