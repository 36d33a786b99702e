import json
from pathlib import Path

import numpy as np
import pytest

import jsonschema

from synthctl.cli import main

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


def test_conformal_bad_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("SYNTHCTL_THREADS", "abc")
    code = main(
        [
            "conformal",
            "--input", str(DATA / "toy_panel.csv"),
            "--treated", "treated",
            "--t0", "10",
            "--g", "2",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: BAD_THREADS: ")


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
    methods = {line.split(",")[1] for line in figure[1:]}
    xs = {line.split(",")[0] for line in figure[1:]}
    assert methods == {"dmscm", "abadie"}
    assert xs == {"2", "5", "10"}
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


def test_simulate_threads_do_not_change_results(tmp_path, monkeypatch):
    out_a = tmp_path / "serial"
    out_b = tmp_path / "threaded"
    base = ["simulate", "--replications", "2", "--j", "3", "--g", "2", "--seed", "4"]
    assert main(base + ["--threads", "1", "--output-dir", str(out_a)]) == 0
    monkeypatch.setenv("SYNTHCTL_THREADS", "4")
    assert main(base + ["--output-dir", str(out_b)]) == 0
    assert (out_a / "records.csv").read_text() == (out_b / "records.csv").read_text()


def test_simulate_bad_threads_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYNTHCTL_THREADS", "abc")
    code = main(
        ["simulate", "--replications", "1", "--j", "3", "--g", "2",
         "--output-dir", str(tmp_path)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: BAD_THREADS: ")


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
