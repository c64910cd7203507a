"""Exception hierarchy shared across modules.

The CLI maps these to exit codes: usage problems exit 1, ``BackendError``
exits 3, and ``DataError`` or any other package error exits 2.

There is one class per CLI outcome and no subclass: no code in ``src/``
tells two errors of one outcome apart. Every error raises one of these three
classes, and its message says what went wrong.
"""


class AerotraceError(Exception):
    """Base class for every error raised by this package."""


class DataError(AerotraceError):
    """Input data is malformed, inconsistent, or unusable."""


class BackendError(AerotraceError):
    """A storage backend is unreachable or refused the operation."""
