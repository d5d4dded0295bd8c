"""Exception hierarchy shared across the package.

Everything raised on bad user input derives from ``FfdelayError`` (itself a
``ValueError``), so callers can catch one base class at an API boundary and
still distinguish parameter problems from data-file problems when they care.
"""

from __future__ import annotations


class FfdelayError(ValueError):
    """Base class for all errors raised by this package."""


class ParameterError(FfdelayError):
    """A model parameter is outside its admissible domain."""


class SeriesLengthError(FfdelayError):
    """A requested horizon exceeds the available load series."""


class ObservationError(FfdelayError):
    """An observation set is unusable (out-of-range day, too few points, ...)."""


class MetricError(FfdelayError):
    """A fit metric is undefined for the given data (e.g. zero variance)."""


class CsvError(FfdelayError):
    """A CSV document failed to parse. ``line`` is the 1-based line number of
    the fault, or None for a fault of the whole document: empty, or no data rows."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateDayError(CsvError):
    """The same day appears twice in a CSV document."""


class ConfigError(FfdelayError):
    """A run-configuration document is invalid."""
