"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can emit
single-line, parseable diagnostics.
"""

from __future__ import annotations


class SynthctlError(Exception):
    """Base class for all package errors."""

    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class PanelParseError(SynthctlError):
    """CSV row could not be parsed; carries the offending row number."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class MissingCellError(SynthctlError):
    code = "MISSING_CELL"


class UnknownTreatedError(SynthctlError):
    code = "UNKNOWN_TREATED"


class BadT0Error(SynthctlError):
    code = "BAD_T0"


class PanelInvariantError(SynthctlError):
    code = "BAD_PANEL"


class MomentOverflowError(SynthctlError):
    """A raw moment left the finite double range; enable scaling or lower the order."""

    code = "OVERFLOW"


class DimensionMismatchError(SynthctlError):
    code = "DIMENSION_MISMATCH"


class BadConfigError(SynthctlError):
    code = "BAD_CONFIG"


class SingularGramError(SynthctlError):
    code = "SINGULAR_GRAM"


class SingularMatrixError(SynthctlError):
    code = "SINGULAR_MATRIX"


class EmptyPostError(SynthctlError):
    code = "EMPTY_POST"


class BadProbError(SynthctlError):
    code = "BAD_PROB"


class NotConvergedWarning(UserWarning):
    """A fit behind a result stopped before the solver certified its optimum.

    Issued where a fit's diagnostics cannot travel with the result, as for a
    conformal refit behind one p-value.
    """
