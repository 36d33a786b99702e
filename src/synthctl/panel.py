"""Outcome panel data model, CSV ingestion, validation, and demeaning.

Panels are stored dense: one row per unit, one column per period, with the
treated unit always at row 0. The CSV interface is long format
(``unit,period,outcome[,x1,...,xK]``) with a required header row.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadT0Error,
    MissingCellError,
    PanelInvariantError,
    PanelParseError,
    UnknownTreatedError,
)

__all__ = [
    "PanelData",
    "PanelSchema",
    "load_panel",
    "save_panel",
]

# Version of every JSON document the package writes; each schema under
# ``schemas/`` pins it as a constant.
SCHEMA_VERSION = 1


@contextlib.contextmanager
def open_csv(target, mode: str):
    """Yield a text stream for CSV I/O on ``target``.

    A path (``str``, ``bytes`` or path-like) is opened in ``mode`` as UTF-8
    with ``newline=""``, as the csv module needs, and closed on exit; any
    other target is taken to be an open stream and yielded as it is.
    """
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield target


@dataclass(frozen=True)
class PanelSchema:
    """Column-name bindings for the long-format CSV interface.

    ``period_type`` declares how period values sort: as integers or as
    lexicographic strings.
    """

    unit: str = "unit"
    period: str = "period"
    outcome: str = "outcome"
    covariates: tuple[str, ...] = ()
    period_type: str = "int"  # "int" | "str"

    def __post_init__(self):
        if self.period_type not in ("int", "str"):
            raise PanelParseError(
                f"period_type must be 'int' or 'str', got {self.period_type!r}"
            )


@dataclass(frozen=True)
class PanelData:
    """A (J+1) x T outcome panel with the treated unit at row 0.

    Immutable after construction. ``period_labels`` is a tuple of the labels
    given, or ``range(1, T + 1)`` when none are: a range holds no label
    objects, so a long panel's default labels take constant memory. A range
    given is kept as it is.
    """

    units: tuple[str, ...]
    outcomes: np.ndarray  # shape (J+1, T)
    t0: int
    period_labels: tuple | range = ()
    covariates: np.ndarray | None = None  # shape (J+1, T, K)

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=float)
        outcomes.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "units", tuple(str(u) for u in self.units))
        if outcomes.ndim != 2:
            raise PanelInvariantError("outcomes must be a 2-D (units x periods) array")
        n_units, n_periods = outcomes.shape
        if len(self.units) != n_units:
            raise PanelInvariantError(
                f"{len(self.units)} unit ids for {n_units} outcome rows"
            )
        if len(set(self.units)) != n_units:
            raise PanelInvariantError("unit identifiers must be unique")
        if n_units < 2:
            raise PanelInvariantError("need at least one untreated unit (J >= 1)")
        if not self.period_labels:
            object.__setattr__(self, "period_labels", range(1, n_periods + 1))
        elif not isinstance(self.period_labels, range):
            object.__setattr__(self, "period_labels", tuple(self.period_labels))
        if len(self.period_labels) != n_periods:
            raise PanelInvariantError(
                f"{len(self.period_labels)} period labels for {n_periods} columns"
            )
        if not np.isfinite(outcomes).all():
            raise PanelInvariantError("outcomes contain missing or non-finite entries")
        if not (2 <= self.t0 < n_periods):
            raise BadT0Error(
                f"t0 must satisfy 2 <= t0 < T, got t0={self.t0} with T={n_periods}"
            )
        if self.covariates is not None:
            cov = np.asarray(self.covariates, dtype=float)
            if cov.ndim == 2:
                # one time-invariant value per unit and covariate, broadcast over periods
                cov = np.repeat(cov[:, None, :], n_periods, axis=1)
            if cov.shape[:2] != (n_units, n_periods):
                raise PanelInvariantError(
                    f"covariates shape {cov.shape} does not match panel "
                    f"({n_units} units x {n_periods} periods)"
                )
            if not np.isfinite(cov).all():
                raise PanelInvariantError("covariates contain non-finite entries")
            cov.setflags(write=False)
            object.__setattr__(self, "covariates", cov)

    @property
    def treated_unit(self) -> str:
        return self.units[0]

    @property
    def n_untreated(self) -> int:
        """J, the number of untreated units."""
        return len(self.units) - 1

    @property
    def n_periods(self) -> int:
        return self.outcomes.shape[1]

    @property
    def n_post(self) -> int:
        """T1, the number of post-intervention periods."""
        return self.n_periods - self.t0

    @property
    def n_covariates(self) -> int:
        return 0 if self.covariates is None else self.covariates.shape[2]

    @property
    def treated_outcomes(self) -> np.ndarray:
        return self.outcomes[0]

    @property
    def untreated_outcomes(self) -> np.ndarray:
        """Outcome rows for untreated units, shape (J, T)."""
        return self.outcomes[1:]

    def with_treated_outcomes(self, new_row: np.ndarray) -> "PanelData":
        """Return a copy of the panel with the treated outcome series replaced."""
        outcomes = self.outcomes.copy()
        outcomes[0] = np.asarray(new_row, dtype=float)
        return PanelData(
            units=self.units,
            outcomes=outcomes,
            t0=self.t0,
            period_labels=self.period_labels,
            covariates=self.covariates,
        )


def demean_rows(outcomes: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean over the first ``window`` columns, and the rows minus it.

    The one demeaning routine: the demeaned moment and least-squares systems
    take their means and rows here. A d2mscm intercept needs the means alone
    and takes the same row means of its window, with no demeaned copy.
    """
    means = outcomes[:, :window].mean(axis=1)
    return means, outcomes - means[:, None]


def _parse_period(raw, schema: PanelSchema, row: int):
    if raw is None:
        raise PanelParseError("missing period value", row=row)
    if schema.period_type == "int":
        try:
            return int(raw)
        except ValueError:
            raise PanelParseError(f"period {raw!r} is not an integer", row=row)
    return raw


def _read_cells(source, schema: PanelSchema) -> tuple[dict, dict]:
    """Outcome and covariate values keyed by (unit, period), one per data row.

    Reads as ``csv.DictReader`` would, by column position: of two
    same-named columns the last wins, a short row's missing cells read as
    missing, extra cells are ignored, and blank lines are skipped without
    counting as rows.
    """
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise PanelParseError("empty CSV: missing header row")
    needed = [schema.unit, schema.period, schema.outcome, *schema.covariates]
    missing = [c for c in needed if c not in header]
    if missing:
        raise PanelParseError(f"missing columns: {', '.join(missing)}")
    position = {name: i for i, name in enumerate(header)}
    i_unit, i_period, i_outcome, *i_covs = (position[c] for c in needed)
    width = max(i_unit, i_period, i_outcome, *i_covs) + 1

    cells: dict[tuple[str, object], float] = {}
    covs: dict[tuple[str, object], tuple[float, ...]] = {}
    for row_no, row in enumerate(filter(None, reader), start=2):
        if len(row) < width:
            row = row + [None] * (width - len(row))
        unit = row[i_unit]
        period = _parse_period(row[i_period], schema, row_no)
        raw = row[i_outcome]
        if unit is None or raw in (None, ""):
            raise PanelParseError("incomplete row", row=row_no)
        try:
            outcome = float(raw)
        except ValueError:
            raise PanelParseError(f"outcome {raw!r} is not a number", row=row_no)
        key = (unit, period)
        if key in cells:
            raise PanelParseError(
                f"duplicate (unit, period) pair ({unit!r}, {period!r})", row=row_no
            )
        cells[key] = outcome
        if i_covs:
            try:
                covs[key] = tuple(float(row[i]) for i in i_covs)
            except (TypeError, ValueError):
                raise PanelParseError("covariate value is not a number", row=row_no)
    return cells, covs


def load_panel(source, schema: PanelSchema, treated: str, t0: int) -> PanelData:
    """Load a long-format CSV into a PanelData.

    ``source`` is a path, a text stream, or a byte stream of UTF-8 CSV with a
    header row. Every (unit, period) pair must appear exactly once; the
    treated unit is moved to row 0 and the remaining units keep sorted order.
    """
    with open_csv(source, "r") as fh:
        if isinstance(fh, (io.RawIOBase, io.BufferedIOBase)) or (
            hasattr(fh, "read") and isinstance(fh.read(0), bytes)
        ):
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            try:
                cells, covs = _read_cells(text, schema)
            finally:
                # the caller owns the byte stream; a collected wrapper would close it
                text.detach()
        else:
            cells, covs = _read_cells(fh, schema)

    if not cells:
        raise PanelParseError("CSV contains no data rows")
    units = sorted({u for u, _ in cells})
    periods = sorted({p for _, p in cells})
    if treated not in units:
        raise UnknownTreatedError(f"treated unit {treated!r} not present in CSV")
    units.remove(treated)
    units.insert(0, treated)

    for u in units:
        for p in periods:
            if (u, p) not in cells:
                raise MissingCellError(f"unit {u!r} has no row for period {p!r}")

    outcomes = np.array([[cells[(u, p)] for p in periods] for u in units])
    covariates = None
    if schema.covariates:
        covariates = np.array(
            [[covs[(u, p)] for p in periods] for u in units]
        )
    return PanelData(
        units=tuple(units),
        outcomes=outcomes,
        t0=t0,
        period_labels=tuple(periods),
        covariates=covariates,
    )


def _csv_fields(values) -> list[str]:
    """Each value as ``csv.writer`` writes it as one field of a multi-field row.

    A field is written in a two-field row and the row's tail cut off, so the
    quoting is exactly the writer's own; a lone empty string is not quoted,
    as it is not in a row of several fields.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        fields.append(buf.getvalue()[: -len(",\r\n")])
    return fields


def save_panel(panel: PanelData, target, schema: PanelSchema | None = None) -> None:
    """Write a panel as long-format CSV that round-trips bitwise through load_panel.

    The bytes ``csv.writer`` would write, one row per (unit, period) in panel
    order: header and labels quoted as the writer quotes them, ``repr`` of
    each float (which Python guarantees to parse back to the identical double
    and which never needs quoting), and ``\r\n`` line ends, in one ``write``
    call.
    """
    if schema is None:
        schema = PanelSchema(
            covariates=tuple(f"x{k + 1}" for k in range(panel.n_covariates))
        )
    if len(schema.covariates) != panel.n_covariates:
        raise PanelParseError(
            f"schema declares {len(schema.covariates)} covariates, "
            f"panel has {panel.n_covariates}"
        )
    values = panel.outcomes[:, :, None]
    if panel.covariates is not None:
        values = np.concatenate((values, panel.covariates), axis=2)
    header = [schema.unit, schema.period, schema.outcome, *schema.covariates]
    periods = [p + "," for p in _csv_fields(panel.period_labels)]
    lines = [",".join(_csv_fields(header))]
    for unit, rows in zip(_csv_fields(panel.units), values.tolist()):
        unit += ","
        lines.extend(
            unit + period + ",".join(map(repr, row)) for period, row in zip(periods, rows)
        )
    lines.append("")
    with open_csv(target, "w") as fh:
        fh.write("\r\n".join(lines))
