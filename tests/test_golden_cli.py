"""Every README CLI example, byte for byte against ``tests/golden/cli/``.

``tools/record_golden_cli.py`` defines the cases and records the corpus.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "record_golden_cli.py"
_spec = importlib.util.spec_from_file_location("record_golden_cli", _SCRIPT)
golden_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cli)


def test_corpus_holds_exactly_the_cases():
    recorded = {p.name for p in golden_cli.CORPUS.iterdir() if p.is_dir()}
    assert recorded == set(golden_cli.CASES)
    assert (golden_cli.CORPUS / "RECORDED_AT").read_text().strip()


@pytest.mark.parametrize("case", sorted(golden_cli.CASES))
def test_cli_case_matches_golden(case, tmp_path):
    got = golden_cli.run_case(golden_cli.CASES[case], tmp_path)
    want = golden_cli.read_case(golden_cli.CORPUS / case)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
