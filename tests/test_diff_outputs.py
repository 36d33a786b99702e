"""``tools/diff_outputs.py`` sizes one known move and reports none on equal trees."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "diff_outputs.py"


def write_tree(root: Path, last_weight: float) -> None:
    (root / "out").mkdir(parents=True)
    report = {"schema_version": 1, "weights": [0.5, last_weight], "method": "dmscm"}
    (root / "out" / "fit.json").write_text(json.dumps(report))
    (root / "curve.csv").write_text("alpha,p\n-1.0,0.25\n1.0,0.5\n")
    (root / "stdout").write_text(f"weights: 0.500000 {last_weight:.6f}\n")


def run(old: Path, new: Path):
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True)


def test_reports_one_known_move(tmp_path):
    write_tree(tmp_path / "old", 0.5)
    write_tree(tmp_path / "new", 0.625)
    proc = run(tmp_path / "old", tmp_path / "new")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "curve.csv: 0 of 4 values moved" in lines
    assert "out/fit.json: 1 of 3 values moved" in lines
    assert "  weights[]: 1 of 2 moved, max abs 0.125, max rel 0.25" in lines
    assert "stdout: 1 of 2 values moved" in lines
    assert "  weights: # #: 1 of 2 moved, max abs 0.125, max rel 0.25" in lines
    assert lines[-1] == "total: 2 of 9 values moved in 3 common files"


def test_equal_trees_report_zero_moves(tmp_path):
    write_tree(tmp_path / "old", 0.5)
    write_tree(tmp_path / "new", 0.5)
    proc = run(tmp_path / "old", tmp_path / "new")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "total: 0 of 9 values moved in 3 common files"


def test_lists_files_and_text_that_differ(tmp_path):
    write_tree(tmp_path / "old", 0.5)
    write_tree(tmp_path / "new", 0.5)
    (tmp_path / "new" / "extra.json").write_text("{}")
    (tmp_path / "new" / "out" / "fit.json").write_text(
        json.dumps({"schema_version": 1, "weights": [0.5, 0.5], "method": "abadie"})
    )
    proc = run(tmp_path / "old", tmp_path / "new")
    assert proc.returncode == 1
    assert "extra.json: only in NEW" in proc.stdout
    assert "  not numeric: method: 'dmscm' -> 'abadie'" in proc.stdout


def test_inserted_csv_column_moves_no_values(tmp_path):
    write_tree(tmp_path / "old", 0.5)
    write_tree(tmp_path / "new", 0.5)
    (tmp_path / "new" / "curve.csv").write_text("alpha,j,p\n-1.0,3,0.25\n1.0,3,0.5\n")
    proc = run(tmp_path / "old", tmp_path / "new")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "curve.csv: 0 of 4 values moved" in lines
    assert "  not numeric: column 'j' only in new" in lines
    assert lines[-1] == "total: 0 of 9 values moved in 3 common files"
    # the same values under reordered columns still differ in bytes
    (tmp_path / "new" / "curve.csv").write_text("p,alpha\n0.25,-1.0\n0.5,1.0\n")
    proc = run(tmp_path / "old", tmp_path / "new")
    assert proc.returncode == 1
    assert "curve.csv: 0 of 4 values moved" in proc.stdout.splitlines()
    assert "header order: ['alpha', 'p'] -> ['p', 'alpha']" in proc.stdout


def test_sizes_a_one_ulp_move_of_a_hex_float(tmp_path):
    # the layout of tests/golden/'s records: floats as float.hex strings
    for side, last in (("old", 0.5), ("new", 0.5 + 2.0**-53)):
        (tmp_path / side).mkdir()
        record = {"weights": [float.hex(0.5), float.hex(last)], "iterations": 7,
                  "counterfactual_sha256": "ab"}
        (tmp_path / side / "record.json").write_text(json.dumps(record))
        (tmp_path / side / "stdout").write_text(f"objective {float.hex(last)}\n")
    proc = run(tmp_path / "old", tmp_path / "new")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "record.json: 1 of 3 values moved" in lines
    assert "  weights[]: 1 of 2 moved, max abs 1.11e-16, max rel 2.22e-16" in lines
    assert "  objective #: 1 of 1 moved, max abs 1.11e-16, max rel 2.22e-16" in lines
    assert lines[-1] == "total: 2 of 4 values moved in 2 common files"
