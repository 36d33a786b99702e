"""Every fitting method through every consumer that takes one.

``Method``'s properties decide what each consumer does with a method. Each
test here runs over every member and checks a consumer against those
properties, so a new member is covered without editing the tests.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from synthctl.cli import main
from synthctl.errors import BadConfigError
from synthctl.estimators import Method, estimate_weights, fit_method
from synthctl.moments import MomentConfig
from synthctl.seeding import derive_seed
from synthctl.simlab import StudySpec, gen_mixture_dgp, run_replication_study

DATA = Path(__file__).resolve().parent.parent / "data"
PANEL_ARGS = ["--input", str(DATA / "toy_panel.csv"), "--treated", "treated", "--t0", "10"]
METHODS = pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)


def small_study(method: Method) -> StudySpec:
    return StudySpec(
        j_values=(4,), g_values=(2, 3, 5), methods=(method,), replications=1,
        t0=20, t1=10, k=2, base_seed=3,
    )


@METHODS
def test_estimate_weights_follows_the_properties(method):
    panel, _ = gen_mixture_dgp(small_study(method).dgp_config(4, derive_seed(3, 0, 0)))
    cfg = MomentConfig(g=3, include_covariates=True, scaling="max_abs")
    fit = fit_method(panel, method, cfg)
    assert fit.weights.simplex is method.simplex
    assert (fit.weights.intercept is not None) is method.demeaned
    if not method.simplex:
        with pytest.raises(BadConfigError):
            estimate_weights(panel, method, cfg)
        return
    wv, _ = estimate_weights(panel, method, cfg)
    np.testing.assert_array_equal(wv.weights, fit.weights.weights)
    assert wv.intercept == fit.weights.intercept


@METHODS
def test_fit_accepts_every_method(tmp_path, capsys, method):
    out = tmp_path / "fit.json"
    args = ["fit", *PANEL_ARGS, "--method", method.value, "--g", "3", "--output", str(out)]
    assert main(args) == 0
    assert f"method: {method.value}" in capsys.readouterr().out
    assert out.exists()


@METHODS
def test_conformal_takes_simplex_methods_only(tmp_path, capsys, method):
    out = tmp_path / "report.json"
    code = main(
        ["conformal", *PANEL_ARGS, "--method", method.value, "--g", "2",
         "--grid-points", "3", "--output", str(out)]
    )
    if method.simplex:
        assert code == 0 and out.exists()
    else:
        assert code == 1
        assert capsys.readouterr().err.startswith("error: BAD_METHOD: ")
        assert not out.exists()


@METHODS
def test_dte_takes_simplex_methods_only(tmp_path, capsys, method):
    code = main(
        ["dte", *PANEL_ARGS, "--method", method.value, "--g", "3", "--L", "200",
         "--mmd", "--permutations", "19",
         "--draws-out", str(tmp_path / "draws.csv"),
         "--output", str(tmp_path / "q.json"),
         "--mmd-out", str(tmp_path / "mmd.json")]
    )
    written = sorted(p.name for p in tmp_path.iterdir())
    if method.simplex:
        assert code == 0
        assert written == ["draws.csv", "mmd.json", "q.json"]
    else:
        assert code == 1
        assert capsys.readouterr().err.startswith("error: BAD_METHOD: ")
        assert written == []


@METHODS
def test_simulate_mmd_takes_simplex_methods_only(tmp_path, capsys, method):
    config = tmp_path / "study.ini"
    config.write_text(
        f"[study]\nmethods = {method.value}\nreplications = 1\nseed = 2\n"
        "[dgp]\nj = 3\ng = 2\nt0 = 12\nt1 = 5\nk = 0\n"
    )
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--mmd", "--output-dir", str(out)])
    if method.simplex:
        assert code == 0
        rows = (out / "records.csv").read_text().strip().splitlines()
        mmd_col = rows[0].split(",").index("mmd_to_truth")
        assert all(row.split(",")[mmd_col] != "" for row in rows[1:])
    else:
        assert code == 1
        assert capsys.readouterr().err.startswith("error: BAD_CONFIG: ")
        assert not out.exists()


@METHODS
def test_only_moment_matching_depends_on_g(method):
    spec = small_study(method)
    panel, _ = gen_mixture_dgp(spec.dgp_config(4, derive_seed(3, 0, 0)))
    fits = [
        fit_method(panel, method, MomentConfig(g=g, include_covariates=True, scaling="max_abs"))
        for g in spec.g_values
    ]
    same_fits = all(
        np.array_equal(f.counterfactual, fits[0].counterfactual)
        and f.weights.intercept == fits[0].weights.intercept
        for f in fits[1:]
    )
    assert same_fits is not method.matches_moments

    # one replication over the G grid; the study reuses a g-invariant fit
    records = run_replication_study(spec).records
    assert [r.g for r in records] == list(spec.g_values)
    distinct = {dataclasses.replace(r, g=0) for r in records}
    assert (len(distinct) == 1) is not method.matches_moments
