import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from synthctl.panel import PanelData

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

_RECORDER = Path(__file__).resolve().parent.parent / "tools" / "record_golden.py"
_spec = importlib.util.spec_from_file_location("record_golden", _RECORDER)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)


def pytest_collection_modifyitems(items):
    # every test that compares against a recorded file carries the golden
    # mark, so `-k golden` selects them all
    for item in items:
        if "golden" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.golden)


@pytest.fixture
def golden(tmp_path):
    """Compare ``name``, or every case under it, byte for byte with its recording.

    ``name`` is a case of ``tools/record_golden.py`` or the group that
    holds it (``"solves"``). Returns the fresh outputs by case.
    """

    def compare(name: str) -> dict[str, dict[str, bytes]]:
        cases = [c for c in recorder.CASES if c == name or c.startswith(name + "/")]
        assert cases, name
        runs = {}
        for case in cases:
            workdir = tmp_path / case
            workdir.mkdir(parents=True)
            got = runs[case] = recorder.CASES[case](workdir)
            want = recorder.read_case(case)
            assert sorted(got) == sorted(want), case
            for file in want:
                assert got[file] == want[file], f"{case}/{file}"
        return runs

    return compare


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def gaussian_mixture_panel(
    t0: int,
    seed: int,
    t1: int = 5,
    sigmas=(1.0, 2.0),
    mix: float = 0.5,
) -> PanelData:
    """Two zero-mean Gaussian units; treated draws from their mixture."""
    rng = np.random.default_rng(seed)
    t = t0 + t1
    u1 = rng.normal(0.0, sigmas[0], size=t)
    u2 = rng.normal(0.0, sigmas[1], size=t)
    pick_first = rng.random(t) < mix
    treated = np.where(
        pick_first,
        rng.normal(0.0, sigmas[0], size=t),
        rng.normal(0.0, sigmas[1], size=t),
    )
    return PanelData(
        units=("tr", "a", "b"), outcomes=np.vstack([treated, u1, u2]), t0=t0
    )


def csv_stream(text: str) -> io.StringIO:
    return io.StringIO(text)
