"""Record the golden CLI corpus: every README CLI example, at test sizes.

Each case runs through ``synthctl.cli.main`` in its own scratch working
directory, where ``data`` links to the repository's sample panels and every
output path is relative (``simulate`` prints its output directory). A case's
directory under ``tests/golden/cli/`` holds its exit code, stdout, stderr and
each file it wrote under ``files/``. ``RECORDED_AT`` names the commit the
corpus was recorded at, with ``-dirty`` when ``src/`` had uncommitted changes.

Run it from the repository root, with ``src`` importable:

    PYTHONPATH=src python tools/record_golden_cli.py

``tests/test_golden_cli.py`` runs the same cases and compares the bytes.
Re-record only for a deliberate change of output, and say why.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "tests" / "golden" / "cli"

_TOY = ["--input", "data/toy_panel.csv", "--treated", "treated", "--t0", "10"]
_DTE = ["dte", *_TOY, "--g", "4", "--seed", "7", "--draws-out", "draws.csv",
        "--output", "quantiles.json", "--mmd", "--mmd-out", "mmd.json"]

# case name -> argv; the README's examples, with study sizes cut for tier-1
CASES = {
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


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir`` and return its outputs by corpus-relative name."""
    from synthctl.cli import main

    (workdir / "data").symlink_to(REPO / "data", target_is_directory=True)
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


def read_case(case_dir: Path) -> dict[str, bytes]:
    """A recorded case's outputs, named as ``run_case`` names them."""
    return {
        str(p.relative_to(case_dir)): p.read_bytes()
        for p in sorted(case_dir.rglob("*"))
        if p.is_file()
    }


def _commit() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                              text=True, check=True).stdout.strip()

    dirty = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def record(corpus: Path = CORPUS) -> None:
    if corpus.exists():
        shutil.rmtree(corpus)
    corpus.mkdir(parents=True)
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(argv, Path(tmp))
        for rel, data in outputs.items():
            target = corpus / name / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        print(f"{name}: {len(outputs)} outputs, exit {outputs['exit_code'].decode().strip()}")
    (corpus / "RECORDED_AT").write_text(_commit() + "\n")


if __name__ == "__main__":
    record()
