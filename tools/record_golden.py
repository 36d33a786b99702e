"""Record every golden value: each case of ``CASES`` into ``tests/golden/``.

A case is a directory under ``tests/golden/`` holding the files its run
returns. The case kinds:

- ``cli/<name>``: a README CLI example at test size. It runs through
  ``synthctl.cli.main`` in its own scratch working directory, where ``data``
  links to the repository's sample panels and every output path is relative.
  The case holds the exit code, stdout, stderr and each file the command
  wrote under ``files/``.
- ``studies/simulate_2j_2g_3m``: the same for ``simulate --config`` on an INI
  file the case writes first, so the INI is recorded beside its outputs.
- ``solves/<name>``, ``solver_exits/<name>`` and ``max_iter/<name>``: one
  simplex solve, and ``fits/<method>``: one ``fit_method`` call. Each is one
  ``record.json`` in the one record layout (``solve_record``): the weights,
  the intercept and every solver diagnostic. A fit adds its method, a
  sha256 over its counterfactual and its pre-fit RMSE (``fit_record``).
- ``studies/replication`` and ``studies/theorem1``: a replication study's
  rows and the theorem1 experiment's means, each as one ``record.json``.

Every float in a ``record.json`` is written as ``float.hex``, so equal bytes
mean equal bits. ``RECORDED_AT`` names the commit the cases were recorded at
(with ``-dirty`` when ``src/`` had uncommitted changes) and the OpenBLAS core
numpy ran on, as ``OPENBLAS_VERBOSE=2`` prints it.

Run it from the repository root, with ``src`` importable. It takes no
options and re-records every case:

    PYTHONPATH=src python tools/record_golden.py

The tests run the same cases and compare the bytes (the ``golden`` fixture
of ``tests/conftest.py``). Re-record only for a deliberate change of
output, and say why.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from synthctl.estimators import Method, estimate_weights, fit_method
from synthctl.moments import MomentConfig, MomentSystem, build_system
from synthctl.seeding import derive_seed
from synthctl.simlab import (
    StudySpec,
    Theorem1Spec,
    _theorem1_panel,
    figure2_spec,
    gen_mixture_dgp,
    run_replication_study,
    theorem1_experiment,
)
from synthctl.solver import SolverOptions, solve_simplex_qp

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

_TOY = ["--input", "data/toy_panel.csv", "--treated", "treated", "--t0", "10"]
_DTE = ["dte", *_TOY, "--g", "4", "--seed", "7", "--draws-out", "draws.csv",
        "--output", "quantiles.json", "--mmd", "--mmd-out", "mmd.json"]

# case name -> argv; the README's examples, with study sizes cut for tier-1
CLI = {
    "fit_dmscm": ["fit", *_TOY, "--method", "dmscm", "--g", "4", "--output", "fit.json"],
    "fit_d2mscm_shifted": ["fit", "--input", "data/toy_panel_shifted.csv", "--treated",
                           "treated", "--t0", "200", "--method", "d2mscm", "--g", "4"],
    "conformal_default_grid": ["conformal", *_TOY, "--g", "2", "--level", "0.10",
                               "--output", "report.json", "--csv", "curve.csv"],
    "conformal_explicit_grid": ["conformal", *_TOY, "--g", "2", "--grid-min", "-5",
                                "--grid-max", "5", "--grid-points", "11",
                                "--output", "report.json"],
    # 6 observed values against 10,000 draws: the MMD gather path
    "dte_l10000_mmd": [*_DTE, "--L", "10000"],
    # 6 against 6: the MMD product path
    "dte_l6_mmd": [*_DTE, "--L", "6"],
    "simulate_figure2": ["simulate", "--preset", "figure2", "--replications", "5",
                         "--seed", "0", "--output-dir", "out/fig2"],
    "simulate_appendixD": ["simulate", "--preset", "appendixD", "--j", "1,5,10",
                           "--replications", "3", "--output-dir", "out/appD"],
    "simulate_theorem1": ["simulate", "--preset", "theorem1", "--replications", "3",
                          "--output-dir", "out/t1"],
}

# two J, two G and three methods; abadie's record is reused across G
_STUDY_INI = (
    "[study]\nmethods = dmscm,abadie,d2mscm\nreplications = 3\nseed = 21\n"
    "[dgp]\nj = 3,4\ng = 2,3\nt0 = 12\nt1 = 6\nk = 2\ntau = 5.0\n"
)


def run_cli(argv: list[str], workdir: Path, inputs: dict[str, str] | None = None
            ) -> dict[str, bytes]:
    """Run one command in ``workdir``, after writing ``inputs`` there, and return its outputs."""
    from synthctl.cli import main

    (workdir / "data").symlink_to(REPO / "data", target_is_directory=True)
    for name, text in (inputs or {}).items():
        (workdir / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    outputs = {
        "exit_code": f"{code}\n".encode(),
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode(),
    }
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir)
        if rel.parts[0] != "data" and path.is_file():
            outputs[str(Path("files") / rel)] = path.read_bytes()
    return outputs


def _hexed(value):
    """``value`` with every float as ``float.hex`` and every array as a list."""
    if isinstance(value, dict):
        return {key: _hexed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_hexed(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return value


def _record(fields: dict) -> dict[str, bytes]:
    return {"record.json": (json.dumps(_hexed(fields), indent=1) + "\n").encode()}


def solve_record(weights, diagnostics) -> dict:
    """The one record layout: a WeightVector and its SolveDiagnostics."""
    return {"weights": weights.weights, "intercept": weights.intercept,
            **dataclasses.asdict(diagnostics)}


def fit_record(fit) -> dict:
    digest = hashlib.sha256(" ".join(map(float.hex, fit.counterfactual.tolist())).encode())
    return {"method": fit.method.value, **solve_record(fit.weights, fit.diagnostics),
            "counterfactual_sha256": digest.hexdigest(), "pre_fit_rmse": fit.pre_fit_rmse}


def _system(a, b) -> MomentSystem:
    a = np.asarray(a, dtype=float)
    return MomentSystem(a_matrix=a, b_vector=np.asarray(b, dtype=float),
                        gamma_orders=tuple(range(1, a.shape[0] + 1)), scale=1.0,
                        demeaned=False)


def _figure2_panel(seed: int):
    return gen_mixture_dgp(figure2_spec().dgp_config(10, seed))[0]


_BASE = dict(include_covariates=True, scaling="max_abs")


def _full_v() -> np.ndarray:
    m = np.random.default_rng(77).normal(size=(8, 8))
    return m @ m.T / 8 + 0.1 * np.eye(8)


def _estimate(method: Method, cfg: MomentConfig) -> dict:
    return solve_record(*estimate_weights(_figure2_panel(20231), method, cfg))


def _solve(system: MomentSystem, v=None, opts: SolverOptions = SolverOptions()) -> dict:
    return solve_record(*solve_simplex_qp(system, v, opts))


def _figure2_system(g: int) -> MomentSystem:
    return build_system(_figure2_panel(20231), MomentConfig(g=g, **_BASE))


def _conformal_certificate() -> dict:
    # the default conformal grid's point 37 for this panel at G = 2, refit
    # over the whole span
    panel = _figure2_panel(0)
    adjusted = panel.treated_outcomes.copy()
    adjusted[panel.t0:] -= float.fromhex("0x1.1907a74dd4584p+6")
    null = panel.with_treated_outcomes(adjusted)
    return _solve(build_system(null, MomentConfig(g=2), window=null.n_periods))


def _stagnant_non_unique() -> dict:
    # two moments of ten units whose target lies beyond the leftmost unit,
    # and that unit's column twice: weight moves between the two copies at
    # no cost, so the optimum is not unique and the active-set walk declines
    rng = np.random.default_rng(4)
    mu = rng.normal(size=9) * 0.7
    a = np.vstack([mu, mu**2 + rng.uniform(0.1, 1.0, 9)])
    a = np.hstack([a, a[:, [int(np.argmin(mu))]]])
    return _solve(_system(a, [mu.min() - rng.uniform(0.1, 0.6), rng.uniform(1, 3)]))


def _theorem1_solve() -> dict:
    spec = Theorem1Spec(replications=1)
    panel = _theorem1_panel(spec, derive_seed(spec.seed, 0))
    return _solve(build_system(panel, MomentConfig(g=spec.g, scaling="pooled_sd")))


def _max_iter_systems() -> dict[str, MomentSystem]:
    rng = np.random.default_rng(4)
    a = rng.normal(0, 1, (8, 6))
    return {
        "full": _system(a, rng.normal(0, 1, 8)),
        "deficient": _system(rng.normal(0, 1, (3, 6)), rng.normal(0, 1, 3)),
        # one unit with a zero column: rank 0, yet one feasible point
        "one": _system(np.zeros((2, 1)), [1.0, 2.0]),
    }


def _max_iter(name: str, max_iter: int) -> dict:
    return _solve(_max_iter_systems()[name], opts=SolverOptions(max_iter=max_iter))


def _fit(method: Method) -> dict:
    panel = _figure2_panel(derive_seed(0, 0, 0))
    return fit_record(fit_method(panel, method, MomentConfig(g=5, **_BASE)))


def replication_spec() -> StudySpec:
    return StudySpec(j_values=(3,), g_values=(2, 4), methods=(Method.DMSCM, Method.ABADIE),
                     replications=1, t0=12, t1=6, k=2, tau=5.0, base_seed=314)


def _replication() -> dict:
    fields = ("j", "g", "method", "replication", "seed", "att_error", "mean_att_error",
              "weight_error")
    records = run_replication_study(replication_spec()).records
    rows = [{f: getattr(r, f) for f in fields} | {"method": r.method.value} for r in records]
    return {"rows": rows}


def _theorem1() -> dict:
    res = theorem1_experiment(Theorem1Spec(replications=3))
    return {"gmm_mean": res["gmm_mean"], "ols_mean": res["ols_mean"]}


# library case name -> the fields of its record.json
_RECORDS = {
    # estimate_weights and general-V solves of one figure2 panel
    "solves/g2": lambda: _estimate(Method.DMSCM, MomentConfig(g=2, **_BASE)),
    "solves/g5": lambda: _estimate(Method.DMSCM, MomentConfig(g=5, **_BASE)),
    "solves/g10": lambda: _estimate(Method.DMSCM, MomentConfig(g=10, **_BASE)),
    "solves/abadie": lambda: _estimate(Method.ABADIE, MomentConfig(g=1)),
    "solves/diag_v": lambda: _solve(_figure2_system(5), np.diag(np.linspace(0.5, 3.0, 10))),
    "solves/full_v": lambda: _solve(_figure2_system(3), _full_v()),
    # one solve per way the solver ends
    # full rank: ends on the face polish
    "solver_exits/figure2_polish": lambda: _solve(_figure2_system(5)),
    # rank-deficient, converged by the certificate
    "solver_exits/conformal_certificate": _conformal_certificate,
    # rank-deficient and stops making progress: the stagnation break, unconverged
    "solver_exits/stagnant_non_unique": _stagnant_non_unique,
    # rank-deficient with a unique optimum, slow: the active-set walk ends it
    # at iteration 256
    "solver_exits/dte_g4": lambda: _solve(build_system(_figure2_panel(0), MomentConfig(g=4))),
    "solver_exits/theorem1": _theorem1_solve,
    "solver_exits/full_v": lambda: _solve(_figure2_system(3), _full_v()),
    # at the default tol: max_iter 16 ends on a periodic certificate, 17 on
    # the last iteration's certificate and polish
    **{f"max_iter/{name}_{n}": partial(_max_iter, name, n)
       for name, counts in (("full", (5, 16, 17)), ("deficient", (5, 16, 17)), ("one", (5,)))
       for n in counts},
    **{f"fits/{m.value}": partial(_fit, m) for m in Method},
    "studies/replication": _replication,
    "studies/theorem1": _theorem1,
}

# case name -> run(workdir) -> {file name in the case directory: bytes}
CASES = {
    **{f"cli/{name}": partial(run_cli, argv) for name, argv in CLI.items()},
    "studies/simulate_2j_2g_3m": partial(
        run_cli, ["simulate", "--config", "study.ini", "--output-dir", "out"],
        inputs={"study.ini": _STUDY_INI}),
    **{name: (lambda workdir, fields=fields: _record(fields()))
       for name, fields in _RECORDS.items()},
}


def read_case(name: str) -> dict[str, bytes]:
    """A recorded case's files, named as its run in ``CASES`` names them."""
    case_dir = GOLDEN / name
    return {
        p.relative_to(case_dir).as_posix(): p.read_bytes()
        for p in sorted(case_dir.rglob("*"))
        if p.is_file()
    }


def _commit() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                              text=True, check=True).stdout.strip()

    dirty = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def _core() -> str:
    """The OpenBLAS core a fresh numpy import selects in this environment."""
    proc = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    match = re.search(r"Core: (\S+)", proc.stdout + proc.stderr)
    return match.group(1) if match else "unknown"


def record() -> None:
    for group in {name.split("/")[0] for name in CASES}:
        shutil.rmtree(GOLDEN / group, ignore_errors=True)
    for name, run in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run(Path(tmp))
        for rel, data in outputs.items():
            target = GOLDEN / name / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        print(f"{name}: {len(outputs)} files")
    (GOLDEN / "RECORDED_AT").write_text(f"{_commit()} {_core()}\n")


if __name__ == "__main__":
    record()
