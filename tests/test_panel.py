import csv
import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthctl.conformal import confidence_interval, save_p_curve
from synthctl.dte import bootstrap_counterfactual, save_draws
from synthctl.errors import (
    BadT0Error,
    MissingCellError,
    PanelInvariantError,
    PanelParseError,
    UnknownTreatedError,
)
from synthctl.estimators import Method, fit_method
from synthctl.moments import MomentConfig
from synthctl.panel import (
    PanelData,
    PanelSchema,
    demean_rows,
    load_panel,
    save_panel,
)
from synthctl.simlab import (
    MixtureDgpConfig,
    StudySpec,
    gen_mixture_dgp,
    run_replication_study,
)

from conftest import csv_stream

SIMPLE_CSV = """unit,period,outcome
A,1,1.0
A,2,2.0
A,3,3.0
A,4,4.0
B,1,2.0
B,2,2.5
B,3,3.5
B,4,4.5
C,1,0.5
C,2,1.0
C,3,1.5
C,4,2.0
"""


def test_load_simple_panel():
    panel = load_panel(csv_stream(SIMPLE_CSV), PanelSchema(), treated="A", t0=2)
    assert panel.units == ("A", "B", "C")
    assert panel.n_untreated == 2
    assert panel.n_periods == 4
    assert panel.n_post == 2
    assert panel.period_labels == (1, 2, 3, 4)
    np.testing.assert_array_equal(panel.treated_outcomes, [1.0, 2.0, 3.0, 4.0])


def test_default_period_labels_peak_is_the_outcomes():
    # a length no other test uses; the default labels were a tuple of T ints
    # cached for the life of the process (11.99 MB here), now a range
    n_periods = 300_007
    tracemalloc.start()
    try:
        outcomes = np.zeros((2, n_periods))
        panel = PanelData(units=("tr", "u"), outcomes=outcomes, t0=4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= outcomes.nbytes + 2**12
    # the finiteness check's one-byte-a-cell mask is the only other array
    assert peak <= outcomes.nbytes + outcomes.size + 2**12
    assert panel.period_labels == range(1, n_periods + 1)
    explicit = PanelData(
        units=("tr", "u"), outcomes=outcomes[:, :7], t0=4, period_labels=list("abcdefg")
    )
    assert explicit.period_labels == tuple("abcdefg")
    # a range given, as with_treated_outcomes passes the labels on, is kept
    assert panel.with_treated_outcomes(outcomes[1]).period_labels is panel.period_labels


def test_treated_moved_to_front():
    panel = load_panel(csv_stream(SIMPLE_CSV), PanelSchema(), treated="B", t0=2)
    assert panel.units == ("B", "A", "C")
    np.testing.assert_array_equal(panel.treated_outcomes, [2.0, 2.5, 3.5, 4.5])


def test_missing_cell():
    broken = SIMPLE_CSV.replace("B,3,3.5\n", "")
    with pytest.raises(MissingCellError):
        load_panel(csv_stream(broken), PanelSchema(), treated="A", t0=2)


def test_unknown_treated():
    with pytest.raises(UnknownTreatedError):
        load_panel(csv_stream(SIMPLE_CSV), PanelSchema(), treated="Z", t0=2)


def test_bad_t0():
    with pytest.raises(BadT0Error):
        load_panel(csv_stream(SIMPLE_CSV), PanelSchema(), treated="A", t0=4)
    with pytest.raises(BadT0Error):
        load_panel(csv_stream(SIMPLE_CSV), PanelSchema(), treated="A", t0=1)


def test_parse_error_carries_row_number():
    broken = SIMPLE_CSV.replace("B,2,2.5", "B,2,not-a-number")
    with pytest.raises(PanelParseError) as err:
        load_panel(csv_stream(broken), PanelSchema(), treated="A", t0=2)
    assert "row 7" in str(err.value)


def test_duplicate_cell_rejected():
    broken = SIMPLE_CSV + "A,4,9.9\n"
    with pytest.raises(PanelParseError):
        load_panel(csv_stream(broken), PanelSchema(), treated="A", t0=2)


def test_last_of_two_same_named_columns_wins():
    text = "unit,period,outcome,outcome\n"
    for unit in ("A", "B"):
        for period in (1, 2, 3):
            text += f"{unit},{period},99.0,{period}.5\n"
    panel = load_panel(csv_stream(text), PanelSchema(), treated="A", t0=2)
    np.testing.assert_array_equal(panel.treated_outcomes, [1.5, 2.5, 3.5])
    # a short row lacks the later column: its outcome reads as missing
    short = text.replace("B,2,99.0,2.5", "B,2,99.0")
    with pytest.raises(PanelParseError) as err:
        load_panel(csv_stream(short), PanelSchema(), treated="A", t0=2)
    assert str(err.value) == "row 6: incomplete row"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty CSV: missing header row"),
        ("\nunit,period,outcome\nA,1,1.0\n", "missing columns: unit, period, outcome"),
        ("unit,period\nA,1\n", "missing columns: outcome"),
        (SIMPLE_CSV.replace("B,2,2.5", "B,2"), "row 7: incomplete row"),
        (SIMPLE_CSV.replace("B,2,2.5", "B,2,"), "row 7: incomplete row"),
        (SIMPLE_CSV.replace("B,2,2.5", "B"), "row 7: missing period value"),
        (SIMPLE_CSV.replace("B,2,2.5", "B,two,2.5"), "row 7: period 'two' is not an integer"),
    ],
)
def test_short_rows_read_missing_cells_as_missing(text, message):
    with pytest.raises(PanelParseError) as err:
        load_panel(csv_stream(text), PanelSchema(), treated="A", t0=2)
    assert str(err.value) == message


def test_short_row_misses_its_covariate():
    text = "unit,period,outcome,x1\n"
    for unit in ("A", "B"):
        for period in (1, 2, 3):
            text += f"{unit},{period},1.0,{period}\n"
    text = text.replace("B,2,1.0,2", "B,2,1.0")
    with pytest.raises(PanelParseError) as err:
        load_panel(csv_stream(text), PanelSchema(covariates=("x1",)), treated="A", t0=2)
    assert str(err.value) == "row 6: covariate value is not a number"


def test_blank_lines_skipped_and_not_counted():
    spaced = SIMPLE_CSV.replace("\n", "\n\n").replace("A,2,2.0", "\n\nA,2,2.0")
    panel = load_panel(csv_stream(spaced), PanelSchema(), treated="A", t0=2)
    expected = load_panel(csv_stream(SIMPLE_CSV), PanelSchema(), treated="A", t0=2)
    np.testing.assert_array_equal(panel.outcomes, expected.outcomes)
    broken = spaced.replace("B,2,2.5", "B,2,not-a-number")
    with pytest.raises(PanelParseError) as err:
        load_panel(csv_stream(broken), PanelSchema(), treated="A", t0=2)
    assert str(err.value) == "row 7: outcome 'not-a-number' is not a number"


def test_extra_cells_ignored():
    padded = SIMPLE_CSV.replace("A,1,1.0", "A,1,1.0,extra,7").replace("C,4,2.0", "C,4,2.0,")
    panel = load_panel(csv_stream(padded), PanelSchema(), treated="A", t0=2)
    expected = load_panel(csv_stream(SIMPLE_CSV), PanelSchema(), treated="A", t0=2)
    np.testing.assert_array_equal(panel.outcomes, expected.outcomes)


def test_covariates_loaded_in_declared_order():
    text = "unit,period,outcome,x1,x2\n"
    for unit in ("A", "B"):
        for period in (1, 2, 3):
            text += f"{unit},{period},1.0,{period * 10},{period * 100}\n"
    schema = PanelSchema(covariates=("x2", "x1"))
    panel = load_panel(csv_stream(text), schema, treated="A", t0=2)
    assert panel.n_covariates == 2
    np.testing.assert_array_equal(panel.covariates[0, 0], [100.0, 10.0])


def test_time_invariant_covariates_rejected():
    # covariates come as (J+1, T, K) only; a (J+1, K) array is not broadcast,
    # not even when K = T makes its first two axes the panel's
    for n_covariates in (2, 4):
        with pytest.raises(PanelInvariantError, match="covariates shape"):
            PanelData(
                units=("tr", "a"),
                outcomes=np.zeros((2, 4)),
                t0=2,
                covariates=np.ones((2, n_covariates)),
            )


def test_period_labels_any_sequence():
    # an array has no truth value; its length decides whether labels were given
    panel = PanelData(
        units=("tr", "a"), outcomes=np.zeros((2, 4)), t0=2, period_labels=np.arange(4)
    )
    assert panel.period_labels == (0, 1, 2, 3)
    with pytest.raises(PanelInvariantError, match="3 period labels"):
        PanelData(
            units=("tr", "a"), outcomes=np.zeros((2, 4)), t0=2, period_labels=np.arange(3)
        )
    empty = PanelData(
        units=("tr", "a"), outcomes=np.zeros((2, 4)), t0=2, period_labels=np.arange(0)
    )
    assert empty.period_labels == range(1, 5)


def test_nan_outcome_rejected():
    outcomes = np.array([[1.0, np.nan, 2.0], [1.0, 1.0, 1.0]])
    with pytest.raises(PanelInvariantError):
        PanelData(units=("tr", "a"), outcomes=outcomes, t0=2)


def test_demean_hand_example():
    outcomes = np.array([[1.0, 2.0, 3.0, 10.0], [5.0, 5.0, 5.0, 5.0]])
    means, demeaned = demean_rows(outcomes, 3)
    np.testing.assert_array_equal(means, [2.0, 5.0])
    np.testing.assert_array_equal(demeaned[0], [-1.0, 0.0, 1.0, 8.0])


def test_demean_zero_and_constant_panels():
    for value in (0.0, 7.25):
        _, demeaned = demean_rows(np.full((2, 5), value), 3)
        np.testing.assert_array_equal(demeaned, np.zeros((2, 5)))


def test_demean_idempotent_within_tolerance():
    rng = np.random.default_rng(3)
    _, once = demean_rows(rng.normal(5, 3, (3, 9)), 6)
    means, _ = demean_rows(once, 6)
    assert np.abs(means).max() < 1e-12


def _reference_save_panel(panel, fh, schema):
    """The csv.writer loop save_panel replaced, one cell at a time: its bytes."""
    writer = csv.writer(fh)
    writer.writerow([schema.unit, schema.period, schema.outcome, *schema.covariates])
    for i, unit in enumerate(panel.units):
        for j, period in enumerate(panel.period_labels):
            row = [unit, period, repr(float(panel.outcomes[i, j]))]
            if panel.covariates is not None:
                row.extend(repr(float(v)) for v in panel.covariates[i, j])
            writer.writerow(row)


# unit ids csv.writer must quote (comma, quote, newline) or must not (empty,
# spaces, non-ASCII); the treated unit first, the rest in load_panel's order
ODD_UNITS = ("ü", *sorted(["", "a,b", 'q"t', "x\ny", " sp "]))
EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_csv_round_trip_bitwise(seed):
    # every label and value case with and without covariates, per seed
    for case, covariates in itertools.product(
        ("plain", "odd_units", "str_periods", "extremes"), (False, True)
    ):
        rng = np.random.default_rng(seed)
        units = ODD_UNITS if case == "odd_units" else ("tr", "a", "b")
        n_units, n_periods = len(units), 5
        outcomes = rng.normal(0, 1e3, (n_units, n_periods))
        cov = rng.normal(0, 7, (n_units, n_periods, 2)) if covariates else None
        if case == "extremes":
            outcomes[:, :3] = EXTREMES
            if cov is not None:
                cov.flat[:3] = EXTREMES
        labels = ("p,1", "p2", "p3", "p4", "p5") if case == "str_periods" else ()
        panel = PanelData(
            units=units, outcomes=outcomes, t0=3, period_labels=labels, covariates=cov
        )
        schema = PanelSchema(
            covariates=() if cov is None else ("x1", "x2"),
            period_type="str" if labels else "int",
        )
        buf = io.StringIO()
        save_panel(panel, buf)
        expected = io.StringIO()
        _reference_save_panel(panel, expected, schema)
        assert buf.getvalue() == expected.getvalue(), (case, covariates)
        reloaded = load_panel(
            csv_stream(buf.getvalue()), schema, treated=units[0], t0=3
        )
        assert reloaded.units == panel.units
        # default labels are a range; the reloaded panel holds a tuple
        assert reloaded.period_labels == tuple(panel.period_labels)
        assert reloaded.outcomes.tobytes() == panel.outcomes.tobytes(), (case, covariates)
        if cov is None:
            assert reloaded.covariates is None
        else:
            assert reloaded.covariates.tobytes() == panel.covariates.tobytes()


def test_string_periods_sort_lexicographically():
    text = "unit,period,outcome\n"
    for unit in ("A", "B"):
        for period in ("q1", "q2", "q3"):
            text += f"{unit},{period},1.5\n"
    schema = PanelSchema(period_type="str")
    panel = load_panel(csv_stream(text), schema, treated="A", t0=2)
    assert panel.period_labels == ("q1", "q2", "q3")


@pytest.fixture(scope="module")
def csv_writers():
    """Each CSV writer of the package, bound to a small output of its own kind."""
    panel, _ = gen_mixture_dgp(MixtureDgpConfig(j=3, t0=8, t1=4, k=2, seed=3))
    cfg = MomentConfig(g=2)
    fit = fit_method(panel, Method.DMSCM, cfg)
    sample = bootstrap_counterfactual(panel, fit.weights, 25, seed=1)
    report = confidence_interval(panel, [-1.0, 0.0, 1.0], 0.1, Method.DMSCM, cfg)
    study = run_replication_study(
        StudySpec(j_values=(2,), g_values=(2,), replications=2, t0=10, t1=5, k=0)
    )
    return {
        "save_panel": lambda target: save_panel(panel, target),
        "save_draws": lambda target: save_draws(sample, target),
        "save_p_curve": lambda target: save_p_curve(report, target),
        "save_records_csv": study.save_records_csv,
        "save_figure_csv": study.save_figure_csv,
    }


@pytest.mark.parametrize(
    "name",
    ["save_panel", "save_draws", "save_p_curve", "save_records_csv", "save_figure_csv"],
)
def test_writer_path_and_stream_give_same_bytes(csv_writers, name, tmp_path):
    write = csv_writers[name]
    buf = io.StringIO()
    write(buf)
    assert not buf.closed
    write(tmp_path / "as_path.csv")
    write(str(tmp_path / "as_str.csv"))
    expected = buf.getvalue().encode("utf-8")
    assert expected.count(b"\r\n") > 1  # csv row endings kept, not translated
    assert (tmp_path / "as_path.csv").read_bytes() == expected
    assert (tmp_path / "as_str.csv").read_bytes() == expected
