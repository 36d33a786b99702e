"""Every README CLI example, byte for byte against ``tests/golden/cli/``.

``tools/record_golden.py`` defines every recorded case and records them all.
"""

import pytest

from conftest import recorder


def test_corpus_holds_exactly_the_cases():
    # each recorded file lies in one case of the recorder's table, and each
    # case has files
    files = {p.relative_to(recorder.GOLDEN).as_posix()
             for p in recorder.GOLDEN.rglob("*") if p.is_file()}
    files.remove("RECORDED_AT")
    owners = {next((c for c in recorder.CASES if f.startswith(c + "/")), f) for f in files}
    assert owners == set(recorder.CASES)
    # the commit and the OpenBLAS core
    assert len((recorder.GOLDEN / "RECORDED_AT").read_text().split()) == 2


@pytest.mark.parametrize("case", sorted(recorder.CLI))
def test_cli_case_matches_golden(case, golden):
    golden(f"cli/{case}")
