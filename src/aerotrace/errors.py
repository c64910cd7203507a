"""Exception hierarchy shared across modules.

The CLI maps these to exit codes: usage problems exit 1, ``BackendError``
exits 3, and ``DataError`` or any other package error exits 2.
"""


class AerotraceError(Exception):
    """Base class for every error raised by this package."""


class DataError(AerotraceError):
    """Input data is malformed, inconsistent, or unusable."""


class BackendError(AerotraceError):
    """A storage backend is unreachable or refused the operation."""


class EmptyInput(DataError):
    """An operation that needs at least one point received none."""


class TooFewPoints(DataError):
    """An operation received fewer points than its minimum."""


class SeriesTooShort(DataError):
    """A series is shorter than the operation requires."""
