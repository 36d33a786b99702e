import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import jsonschema

from synthctl import estimators
from synthctl.cli import build_parser, main
from synthctl.conformal import confidence_interval, default_grid
from synthctl.dte import mmd_test
from synthctl.estimators import Method

DATA = Path(__file__).resolve().parent.parent / "data"
SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "synthctl" / "schemas"


def schema(name):
    return json.loads((SCHEMAS / name).read_text())


def fit_args(tmp_path, extra=()):
    return [
        "fit",
        "--input", str(DATA / "toy_panel.csv"),
        "--treated", "treated",
        "--t0", "10",
        "--method", "dmscm",
        "--g", "4",
        "--output", str(tmp_path / "fit.json"),
        *extra,
    ]


def test_fit_writes_valid_json(tmp_path, capsys):
    assert main(fit_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "weights:" in out and "mean_post_att:" in out
    payload = json.loads((tmp_path / "fit.json").read_text())
    jsonschema.validate(payload, schema("fit_result.schema.json"))
    w = np.array(payload["weights"])
    assert w.min() >= 0 and w.sum() == pytest.approx(1.0, abs=1e-9)


def test_fit_d2mscm_reports_shift(tmp_path, capsys):
    code = main(
        [
            "fit",
            "--input", str(DATA / "toy_panel_shifted.csv"),
            "--treated", "treated",
            "--t0", "200",
            "--method", "d2mscm",
            "--g", "4",
            "--output", str(tmp_path / "fit.json"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    intercept = float(
        next(line for line in out.splitlines() if line.startswith("intercept:")).split()[1]
    )
    assert intercept == pytest.approx(5.0, abs=0.5)


def test_fit_missing_input(tmp_path, capsys):
    code = main(
        [
            "fit",
            "--input", str(tmp_path / "nope.csv"),
            "--treated", "treated",
            "--t0", "10",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IO_NOT_FOUND:")
    assert "\n" not in err.strip()


def test_fit_unwritable_output_is_user_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = fit_args(tmp_path)
    args[args.index("--output") + 1] = str(blocker / "fit.json")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IO_WRITE:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["fit"],
        ["fit", "--input", "x.csv", "--treated", "t", "--t0", "abc"],
        ["simulate", "--preset", "bogus"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("usage: synthctl")
    assert err[-1].startswith("error: USAGE: ")
    assert sum(line.startswith("error: ") for line in err) == 1


@pytest.mark.parametrize("command", ["conformal", "simulate"])
def test_threads_is_an_unknown_flag(command, tmp_path, capsys):
    out_dir = tmp_path / "D"
    if command == "conformal":
        argv = ["conformal", "--input", str(DATA / "toy_panel.csv"), "--treated", "treated",
                "--t0", "10", "--g", "2", "--output", str(out_dir / "report.json")]
    else:
        argv = ["simulate", "--replications", "1", "--j", "3", "--g", "2",
                "--output-dir", str(out_dir)]
    assert main(argv + ["--threads", "2"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("error: USAGE: ") and "--threads" in err[-1]
    assert sum(line.startswith("error: ") for line in err) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: synthctl" in capsys.readouterr().out


def test_repeated_main_calls_see_only_their_own_argv(tmp_path, capsys):
    # main reuses one parser per process; no call may leak into the next
    def fit(name, extra=()):
        args = fit_args(tmp_path, extra)
        args[args.index("--output") + 1] = str(tmp_path / name)
        assert main(args) == 0
        return (tmp_path / name).read_bytes(), capsys.readouterr().out

    first = fit("first.json")
    assert fit("other.json", ["--g", "2", "--scaling", "none"]) != first
    assert main(["fit", "--input", "x.csv", "--treated", "t", "--t0", "abc"]) == 1
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("error: USAGE: ")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0
    assert "usage: synthctl fit" in capsys.readouterr().out
    assert fit("again.json") == first
    assert build_parser() is not build_parser()


_PANEL_ARGS = ["--input", "x.csv", "--treated", "t", "--t0", "3"]


@pytest.mark.parametrize(
    "command, dest, owner, param, value",
    [
        ("conformal", "grid_points", default_grid, "points", 17),
        ("dte", "permutations", mmd_test, "permutations", 99),
        ("fit", "method", confidence_interval, "estimator", Method.ABADIE),
        ("conformal", "method", confidence_interval, "estimator", Method.ABADIE),
        ("dte", "method", confidence_interval, "estimator", Method.ABADIE),
    ],
)
def test_parser_defaults_are_the_library_defaults(command, dest, owner, param, value, monkeypatch):
    def parsed():
        return getattr(build_parser().parse_args([command, *_PANEL_ARGS]), dest)

    library = inspect.signature(owner).parameters[param].default
    assert parsed() == library
    # the flag follows its owner: a changed library default changes the flag's
    # (each owner's first default is the one its flag reads)
    assert owner.__defaults__[0] is library
    monkeypatch.setattr(owner, "__defaults__", (value, *owner.__defaults__[1:]))
    assert parsed() == value


def test_fit_propagates_panel_errors(capsys):
    code = main(
        [
            "fit",
            "--input", str(DATA / "toy_panel.csv"),
            "--treated", "nobody",
            "--t0", "10",
        ]
    )
    assert code == 1
    assert "UNKNOWN_TREATED" in capsys.readouterr().err


def test_overflow_exit_prints_only_its_error_line(tmp_path):
    # a fresh interpreter, so numpy's floating-point warnings reach stderr
    lines = (DATA / "toy_panel.csv").read_text().splitlines()
    scaled = [lines[0]] + [
        f"{unit},{period},{float(y) * 1e160!r}"
        for unit, period, y in (line.split(",") for line in lines[1:])
    ]
    panel = tmp_path / "panel.csv"
    panel.write_text("\n".join(scaled) + "\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "synthctl.cli", "fit", "--input", str(panel),
         "--treated", "treated", "--t0", "10", "--g", "1", "--scaling", "none"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 1
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("error: OVERFLOW: ")


def test_conformal_reports_interval(tmp_path, capsys):
    code = main(
        [
            "conformal",
            "--input", str(DATA / "toy_panel.csv"),
            "--treated", "treated",
            "--t0", "10",
            "--g", "2",
            "--level", "0.2",
            "--grid-points", "15",
            "--output", str(tmp_path / "report.json"),
            "--csv", str(tmp_path / "curve.csv"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tau_hat" in out and "@ 0.2" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(payload, schema("conformal_report.schema.json"))
    # the sample panel has no treatment effect, so zero should be covered
    assert payload["interval"]["lower"] <= 0.0 <= payload["interval"]["upper"]
    curve = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert curve[0] == "alpha,p"
    assert len(curve) == 16


def test_conformal_bad_level(capsys):
    code = main(
        [
            "conformal",
            "--input", str(DATA / "toy_panel.csv"),
            "--treated", "treated",
            "--t0", "10",
            "--level", "1.5",
        ]
    )
    assert code == 1
    assert "BAD_LEVEL" in capsys.readouterr().err


def test_conformal_warns_on_grid_edge(tmp_path, capsys):
    code = main(
        [
            "conformal",
            "--input", str(DATA / "toy_panel.csv"),
            "--treated", "treated",
            "--t0", "10",
            "--g", "2",
            "--level", "0.05",
            "--grid-min", "-0.01",
            "--grid-max", "0.01",
            "--grid-points", "3",
            "--output", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    assert "WARN_GRID_EDGE" in capsys.readouterr().err


def test_unconverged_fits_warn_once(tmp_path, capsys):
    # at --max-iter 5 the point fit and 34 of the 41 default-grid refits
    # stop unconverged; before, conformal_p_value dropped each refit's
    # diagnostics and no command said so. Exit codes are unchanged
    common = ["--input", str(DATA / "toy_panel.csv"), "--treated", "treated", "--t0", "10",
              "--g", "2"]
    commands = [
        (["conformal", *common, "--output", str(tmp_path / "r.json")], "35 of 42"),
        (["fit", *common, "--output", str(tmp_path / "fit.json")], "1 of 1"),
        (["dte", *common, "--L", "100", "--output", str(tmp_path / "q.json")], "1 of 1"),
    ]
    for argv, counts in commands:
        assert main([*argv, "--max-iter", "5"]) == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("WARN_NOT_CONVERGED")]
        assert warned == [f"WARN_NOT_CONVERGED: {counts} fits did not converge; "
                          "their weights are not certified optimal"], argv
        # every fit converges at the default --max-iter
        assert main(argv) == 0
        assert "WARN_NOT_CONVERGED" not in capsys.readouterr().err, argv


def test_simulate_warns_on_unconverged_fits(tmp_path, monkeypatch, capsys):
    # simulate has no --max-iter, so the study's first moment-matching fit
    # is capped at one iteration with tol 0; before, an unconverged study or
    # theorem1 fit printed nothing. Exit codes and output files are
    # unchanged. A study fits through fit_method, theorem1 through
    # estimate_weights, whose OLS fits take no solver options
    import synthctl.simlab as simlab
    from synthctl.moments import MomentConfig
    from synthctl.solver import SolverOptions

    calls = []

    def first_fit_capped(fit):
        def capped(panel, method, cfg=MomentConfig(), opts=SolverOptions()):
            if Method(method).matches_moments:
                calls.append(method)
                if len(calls) == 1:
                    opts = SolverOptions(tol=0.0, max_iter=1)
            return fit(panel, method, cfg, opts)
        return capped

    config = tmp_path / "study.ini"
    config.write_text("[study]\nmethods = dmscm,ols\n"
                      "[dgp]\nj = 3\ng = 2,4,6\nt0 = 12\nt1 = 5\nk = 0\n")
    runs = (
        # 2 replications of dmscm at 3 values of G, and abadie once
        ("figure2", ["--preset", "figure2"], "1 of 8"),
        # 2 replications of one OLS and one dmscm fit each
        ("theorem1", ["--preset", "theorem1"], "1 of 4"),
        # the same count with ols, which is fitted by least squares once per
        # panel: its fits count too
        ("config", ["--config", str(config)], "1 of 8"),
    )
    for preset, study, counts in runs:
        argv = ["simulate", *study, "--replications", "2", "--seed", "0"]
        assert main([*argv, "--output-dir", str(tmp_path / preset)]) == 0
        assert "WARN_NOT_CONVERGED" not in capsys.readouterr().err, preset
        calls.clear()
        with monkeypatch.context() as m:
            for name in ("fit_method", "estimate_weights"):
                m.setattr(simlab, name, first_fit_capped(getattr(simlab, name)))
            assert main([*argv, "--output-dir", str(tmp_path / f"{preset}-capped")]) == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("WARN_NOT_CONVERGED")]
        assert warned == [f"WARN_NOT_CONVERGED: {counts} fits did not converge; "
                          "their weights are not certified optimal"], preset
        assert sorted(p.name for p in (tmp_path / preset).iterdir()) == sorted(
            p.name for p in (tmp_path / f"{preset}-capped").iterdir())


def test_fit_listener_hears_both_theorem1_estimates(tmp_path):
    # each replication fits OLS, then dmscm, through estimate_weights
    heard = []
    argv = ["simulate", "--preset", "theorem1", "--replications", "2", "--seed", "0",
            "--output-dir", str(tmp_path)]
    with estimators.fit_listener(lambda method, system, *_: heard.append((method, system))):
        assert main(argv) == 0
    assert [m for m, _ in heard] == [Method.OLS, Method.DMSCM] * 2
    assert [s is None for _, s in heard] == [True, False] * 2


def test_conformal_passes_other_warnings_on(tmp_path, monkeypatch, capsys):
    # main counts the refits it hears of; a warning raised meanwhile still
    # reaches the caller
    import synthctl.cli as cli

    def warning_interval(*args):
        warnings.warn("not a convergence warning", UserWarning)
        return confidence_interval(*args)

    monkeypatch.setattr(cli, "confidence_interval", warning_interval)
    argv = ["conformal", "--input", str(DATA / "toy_panel.csv"), "--treated", "treated",
            "--t0", "10", "--g", "2", "--grid-points", "3", "--max-iter", "5",
            "--output", str(tmp_path / "r.json")]
    with pytest.warns(UserWarning, match="not a convergence warning"):
        assert main(argv) == 0
    assert "WARN_NOT_CONVERGED: 3 of 4 fits" in capsys.readouterr().err


def test_no_fit_count_after_a_command_fails(tmp_path, capsys):
    # 3 of the 4 fits stop unconverged, then the report cannot be written:
    # the command prints its error line alone, and main's listener is gone
    argv = ["conformal", "--input", str(DATA / "toy_panel.csv"), "--treated", "treated",
            "--t0", "10", "--g", "2", "--grid-points", "3", "--max-iter", "5",
            "--output", str(tmp_path / "missing" / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: IO_WRITE: ")
    assert estimators._listeners == []


def test_dte_outputs_deterministic(tmp_path, capsys):
    def run(tag):
        out_json = tmp_path / f"q{tag}.json"
        draws = tmp_path / f"d{tag}.csv"
        code = main(
            [
                "dte",
                "--input", str(DATA / "toy_panel.csv"),
                "--treated", "treated",
                "--t0", "10",
                "--g", "4",
                "--L", "1000",
                "--seed", "7",
                "--draws-out", str(draws),
                "--output", str(out_json),
            ]
        )
        assert code == 0
        return draws.read_text(), out_json.read_text()

    draws1, q1 = run("a")
    draws2, q2 = run("b")
    assert draws1 == draws2
    assert q1 == q2
    payload = json.loads(q1)
    jsonschema.validate(payload, schema("quantiles.schema.json"))
    assert payload["l"] == 1000 and payload["seed"] == 7


def test_dte_with_mmd_report(tmp_path, capsys):
    code = main(
        [
            "dte",
            "--input", str(DATA / "toy_panel.csv"),
            "--treated", "treated",
            "--t0", "10",
            "--g", "4",
            "--L", "400",
            "--seed", "3",
            "--mmd",
            "--permutations", "99",
            "--mmd-out", str(tmp_path / "mmd.json"),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "mmd.json").read_text())
    jsonschema.validate(payload, schema("mmd_report.schema.json"))
    assert "mmd2:" in capsys.readouterr().out


def test_simulate_figure2_preset(tmp_path, capsys):
    out_dir = tmp_path / "study"
    code = main(
        [
            "simulate",
            "--preset", "figure2",
            "--replications", "2",
            "--seed", "5",
            "--output-dir", str(out_dir),
        ]
    )
    assert code == 0
    records = (out_dir / "records.csv").read_text().strip().splitlines()
    assert len(records) == 1 + 2 * 3 * 2  # header + R * |G| * |methods|
    figure = (out_dir / "figure.csv").read_text().strip().splitlines()
    assert figure[0] == "x,j,method,median,q25,q75"
    methods = {line.split(",")[2] for line in figure[1:]}
    xs = {line.split(",")[0] for line in figure[1:]}
    assert methods == {"dmscm", "abadie"}
    assert xs == {"2", "5", "10"}
    assert {line.split(",")[1] for line in figure[1:]} == {"10"}
    payload = json.loads((out_dir / "aggregates.json").read_text())
    jsonschema.validate(payload, schema("simulation_aggregates.schema.json"))


def test_simulate_appendix_d_j_override(tmp_path):
    out_dir = tmp_path / "study"
    code = main(
        [
            "simulate",
            "--preset", "appendixD",
            "--replications", "1",
            "--j", "1,5",
            "--g", "2",
            "--seed", "1",
            "--output-dir", str(out_dir),
        ]
    )
    assert code == 0
    figure = (out_dir / "figure.csv").read_text().strip().splitlines()
    assert figure[0] == "x,g,method,median,q25,q75"
    xs = {line.split(",")[0] for line in figure[1:]}
    assert xs == {"1", "5"}


def test_simulate_records_mmd_when_requested(tmp_path):
    out_dir = tmp_path / "study"
    code = main(
        [
            "simulate",
            "--replications", "1",
            "--j", "3",
            "--g", "2",
            "--seed", "8",
            "--mmd",
            "--output-dir", str(out_dir),
        ]
    )
    assert code == 0
    rows = (out_dir / "records.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    mmd_col = header.index("mmd_to_truth")
    assert all(row.split(",")[mmd_col] != "" for row in rows[1:])


def test_simulate_theorem1_preset(tmp_path, capsys):
    out_dir = tmp_path / "t1"
    code = main(
        [
            "simulate",
            "--preset", "theorem1",
            "--replications", "3",
            "--seed", "2",
            "--output-dir", str(out_dir),
        ]
    )
    assert code == 0
    payload = json.loads((out_dir / "theorem1.json").read_text())
    jsonschema.validate(payload, schema("theorem1_result.schema.json"))
    assert "predicted_limit" in capsys.readouterr().out


def test_simulate_seed_reproducible(tmp_path):
    dirs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code = main(
            [
                "simulate",
                "--replications", "2",
                "--j", "3",
                "--g", "2,3",
                "--seed", "11",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        dirs.append(out_dir)
    assert (dirs[0] / "records.csv").read_text() == (dirs[1] / "records.csv").read_text()
    assert (dirs[0] / "aggregates.json").read_text() == (dirs[1] / "aggregates.json").read_text()


def test_conformal_default_grid_fits_once_before_its_refits(monkeypatch, capsys):
    import synthctl.estimators as estimators

    calls = []
    solve = estimators.solve_simplex_qp

    def spy(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(estimators, "solve_simplex_qp", spy)
    assert main(["conformal", "--input", str(DATA / "toy_panel.csv"),
                 "--treated", "treated", "--t0", "10", "--g", "2"]) == 0
    # one point fit serves the grid and tau_hat; then one refit per grid point
    assert len(calls) == 1 + 41
    assert capsys.readouterr().out.startswith("tau_hat ")


def test_simulate_config_file_with_flag_override(tmp_path):
    config = tmp_path / "study.ini"
    config.write_text(
        "[study]\n"
        "methods = dmscm, abadie\n"
        "replications = 3\n"
        "seed = 6\n"
        f"output_dir = {tmp_path / 'from_config'}\n"
        "\n"
        "[dgp]\n"
        "j = 3\n"
        "g = 2\n"
        "t0 = 12\n"
        "t1 = 5\n"
        "k = 0\n"
        "tau = 4.0\n"
        "stationary = true\n"
    )
    out_dir = tmp_path / "override"
    # flags win over the config file: replications 3 -> 1, output_dir overridden
    code = main(
        [
            "simulate",
            "--config", str(config),
            "--replications", "1",
            "--output-dir", str(out_dir),
        ]
    )
    assert code == 0
    assert not (tmp_path / "from_config").exists()
    records = (out_dir / "records.csv").read_text().strip().splitlines()
    assert len(records) == 1 + 1 * 1 * 2

    # config alone uses its own output_dir and replication count
    assert main(["simulate", "--config", str(config)]) == 0
    records = (tmp_path / "from_config" / "records.csv").read_text().strip().splitlines()
    assert len(records) == 1 + 3 * 1 * 2


def test_simulate_requires_output_dir(capsys):
    assert main(["simulate", "--replications", "1"]) == 1
    assert "BAD_OUTPUT" in capsys.readouterr().err


@pytest.mark.parametrize("replications", ["0", "-1"])
def test_simulate_theorem1_needs_a_replication(tmp_path, capsys, replications):
    code = main(
        ["simulate", "--preset", "theorem1", "--replications", replications,
         "--output-dir", str(tmp_path)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: BAD_CONFIG: ")
    assert not (tmp_path / "theorem1.json").exists()


@pytest.mark.parametrize("preset", ["theorem1", "figure2"])
def test_simulate_rejected_spec_creates_no_output_dir(tmp_path, capsys, preset):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--preset", preset, "--replications", "0",
         "--output-dir", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: BAD_CONFIG: ")
    assert not out.exists()


def test_simulate_unwritable_output_dir_is_user_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(
        ["simulate", "--replications", "1", "--j", "3", "--g", "2",
         "--output-dir", str(blocker / "out")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: IO_WRITE: ")


# each command's own arguments, every output file included
INFERENCE_ARGS = {
    "dte": ["--L", "50", "--draws-out", "draws.csv", "--output", "q.json",
            "--mmd-out", "mmd.json"],
    "conformal": ["--output", "report.json", "--csv", "curve.csv"],
}


@pytest.mark.parametrize(
    "command, extra, code",
    [
        ("dte", ["--probs", "abc"], "BAD_PROB"),
        ("dte", ["--probs", ""], "BAD_PROB"),
        ("dte", ["--probs", "0,0.5"], "BAD_PROB"),
        ("dte", ["--probs", "0.5,0.25"], "BAD_PROB"),
        ("dte", ["--mmd", "--permutations", "0"], "BAD_PERMUTATIONS"),
        ("conformal", ["--grid-min", "0", "--grid-max", "1", "--grid-points", "-1"], "BAD_GRID"),
        ("conformal", ["--grid-points", "0"], "BAD_GRID"),
        ("conformal", ["--grid-min", "-1"], "BAD_GRID"),
        ("conformal", ["--grid-min", "1", "--grid-max", "-1"], "BAD_GRID"),
        ("conformal", ["--grid-min", "nan", "--grid-max", "1"], "BAD_GRID"),
        ("conformal", ["--grid-min", "-1", "--grid-max", "inf"], "BAD_GRID"),
        ("conformal", ["--grid-min=-inf", "--grid-max", "1"], "BAD_GRID"),
        ("conformal", ["--grid-min=-1e308", "--grid-max", "1e308"], "BAD_GRID"),
    ],
)
def test_inference_mistakes_exit_1_before_any_output(
    tmp_path, monkeypatch, capsys, command, extra, code
):
    # the input does not exist: reading it first would exit with IO_NOT_FOUND
    monkeypatch.chdir(tmp_path)
    argv = [command, "--input", "missing.csv", "--treated", "treated",
            "--t0", "10", "--g", "2", *extra, *INFERENCE_ARGS[command]]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {code}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
     ("--max-iter", "0"), ("--max-iter", "-5")],
)
@pytest.mark.parametrize("command", ["fit", "conformal", "dte"])
def test_solver_option_mistakes_exit_1_before_any_output(
    tmp_path, monkeypatch, capsys, command, flag, value
):
    # the input does not exist: reading it first would exit with IO_NOT_FOUND
    monkeypatch.chdir(tmp_path)
    outputs = INFERENCE_ARGS.get(command, ["--output", "fit.json"])
    argv = [command, "--input", "missing.csv", "--treated", "treated",
            "--t0", "10", "--g", "2", flag, value, *outputs]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: BAD_CONFIG: solver ")
    assert list(tmp_path.iterdir()) == []


SIMULATE_DGP = "[dgp]\nj = 3\ng = 2\nt0 = 12\nt1 = 5\nk = 0\n"


@pytest.mark.parametrize(
    "config, code",
    [
        ("[study]\nreplications = two\n" + SIMULATE_DGP, "BAD_CONFIG"),
        ("[study]\nseed = 1.5\n" + SIMULATE_DGP, "BAD_CONFIG"),
        (SIMULATE_DGP.replace("t0 = 12", "t0 = twelve"), "BAD_CONFIG"),
        (SIMULATE_DGP.replace("t1 = 5", "t1 = 5.0"), "BAD_CONFIG"),
        (SIMULATE_DGP.replace("k = 0", "k = none"), "BAD_CONFIG"),
        (SIMULATE_DGP + "tau = big\n", "BAD_CONFIG"),
        (SIMULATE_DGP + "stationary = maybe\n", "BAD_CONFIG"),
        ("replications = 1\n" + SIMULATE_DGP, "BAD_CONFIG"),
        ("[study]\nreplication = 1\n" + SIMULATE_DGP, "BAD_CONFIG"),
        (SIMULATE_DGP + "drift = 2.0\n", "BAD_CONFIG"),
        (SIMULATE_DGP.replace("t0 = 12", "t0 = 1"), "BAD_CONFIG"),
        (SIMULATE_DGP.replace("g = 2", "g = 0"), "BAD_CONFIG"),
        (SIMULATE_DGP + "var_floor_mode = never\n", "BAD_CONFIG"),
        (SIMULATE_DGP.replace("j = 3", "j = ,"), "BAD_CONFIG"),
        (SIMULATE_DGP.replace("j = 3", "j = 3,x"), "BAD_LIST"),
        ("[study]\nmethods = dmscm, bogus\n" + SIMULATE_DGP, "BAD_METHOD"),
    ],
)
def test_simulate_config_mistakes_exit_1_without_output_dir(tmp_path, capsys, config, code):
    ini = tmp_path / "study.ini"
    ini.write_text(config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--replications", "1",
                 "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {code}: ")
    assert not out.exists()


def test_simulate_config_ignores_other_sections(tmp_path):
    # a schema template's [panel] and [covariates] sections are not study keys
    out = tmp_path / "out"
    config = DATA / "schema_templates" / "basque.ini"
    assert main(["simulate", "--config", str(config), "--replications", "1",
                 "--j", "3", "--g", "2", "--output-dir", str(out)]) == 0
    assert len((out / "records.csv").read_text().strip().splitlines()) == 1 + 2

    # [DEFAULT] offers its keys to every section; only study keys are read
    config = tmp_path / "defaults.ini"
    config.write_text("[DEFAULT]\nunit = region\nseed = 3\n[study]\n" + SIMULATE_DGP)
    assert main(["simulate", "--config", str(config), "--replications", "1",
                 "--output-dir", str(tmp_path / "d")]) == 0


@pytest.mark.parametrize(
    "extra, config",
    [
        (["--j", "3"], None),
        (["--g", "2"], None),
        (["--mmd"], None),
        ([], "[study]\nmethods = dmscm\n"),
        ([], "[dgp]\nt0 = 12\n"),
    ],
)
def test_simulate_theorem1_rejects_settings_it_does_not_use(tmp_path, capsys, extra, config):
    out = tmp_path / "out"
    argv = ["simulate", "--preset", "theorem1", "--replications", "1", *extra,
            "--output-dir", str(out)]
    if config is not None:
        ini = tmp_path / "study.ini"
        ini.write_text(config)
        argv += ["--config", str(ini)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: BAD_CONFIG: ")
    assert not out.exists()


def test_simulate_matches_golden_outputs(golden):
    # simulate --config over two J, two G and three methods
    outputs = golden("studies/simulate_2j_2g_3m")["studies/simulate_2j_2g_3m"]
    # x is J here; with G beside it, each (J, G, method) cell has its own key
    rows = outputs["files/out/figure.csv"].decode().strip().splitlines()[1:]
    keys = [tuple(row.split(",")[:3]) for row in rows]
    assert len(set(keys)) == len(keys) == 2 * 2 * 3


def test_simulate_one_j_plots_over_g(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--j", "3", "--g", "2,4", "--replications", "2",
                 "--seed", "0", "--output-dir", str(out)]) == 0
    rows = (out / "figure.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "2", "4", "4"]


@pytest.mark.parametrize(
    "extra, config",
    [
        (["--j", "3,3"], None),
        (["--g", "2,4,2"], None),
        ([], "[study]\nmethods = dmscm, abadie, dmscm\n"),
        ([], "[study]\nmethods = fp, fp_demeaned\n"),
    ],
)
def test_simulate_rejects_repeated_grid_values(tmp_path, capsys, extra, config):
    out = tmp_path / "out"
    argv = ["simulate", "--replications", "1", *extra, "--output-dir", str(out)]
    if config is not None:
        ini = tmp_path / "study.ini"
        ini.write_text(config)
        argv += ["--config", str(ini)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: BAD_CONFIG: ")
    assert "repeats a value" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
@pytest.mark.parametrize("command", ["fit", "conformal", "dte", "simulate"])
def test_unreadable_user_file_is_io_read(tmp_path, monkeypatch, capsys, command, unreadable):
    # a directory, or a file that is not UTF-8, in place of a panel or a config
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    path = tmp_path
    if unreadable == "not_utf8":
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"unit,period,outcome\ntreated,1,1.0\n\xff,1,2.0\n")
    path = str(path)
    if command == "simulate":
        argv = ["simulate", "--config", path, "--replications", "1",
                "--output-dir", "out"]
    else:
        argv = [command, "--input", path, "--treated", "treated", "--t0", "10",
                *INFERENCE_ARGS.get(command, ["--output", "fit.json"])]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: IO_READ: cannot read {path}: ")
    assert list(work.iterdir()) == []


def test_dte_negative_seed_exits_1_before_reading(tmp_path, monkeypatch, capsys):
    # the input does not exist: reading it first would exit with IO_NOT_FOUND
    monkeypatch.chdir(tmp_path)
    argv = ["dte", "--input", "missing.csv", "--treated", "treated", "--t0", "10",
            "--seed", "-1", "--mmd", *INFERENCE_ARGS["dte"]]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: BAD_SEED: ")
    assert list(tmp_path.iterdir()) == []


def test_dte_mmd_permutations_use_their_own_stream(tmp_path, monkeypatch, capsys):
    import synthctl.cli as cli
    from synthctl.seeding import derive_seed

    seeds = {}
    real_bootstrap, real_mmd = cli.bootstrap_counterfactual, cli.mmd_test

    def bootstrap(panel, weights, l, seed):
        seeds["bootstrap"] = seed
        return real_bootstrap(panel, weights, l, seed)

    def mmd(a, b, permutations, seed):
        seeds["mmd"] = seed
        return real_mmd(a, b, permutations=permutations, seed=seed)

    monkeypatch.setattr(cli, "bootstrap_counterfactual", bootstrap)
    monkeypatch.setattr(cli, "mmd_test", mmd)
    assert main(["dte", "--input", str(DATA / "toy_panel.csv"), "--treated", "treated",
                 "--t0", "10", "--g", "4", "--L", "50", "--seed", "3", "--mmd",
                 "--permutations", "9"]) == 0
    assert seeds == {"bootstrap": 3, "mmd": derive_seed(3, 1)}
