"""Immutable time series plus the resampling and CSV helpers shared by the analytics modules.

A ``TimeSeries`` is two read-only numpy arrays, int64 epoch seconds and float64
values; datetimes are built only where text is written.

Both CSV readers, ``read_csv_series`` here and the sensor reader of the
CLI, are ``read_series`` with a byte parse and a row parser. The byte parse
goes first, column by column (``parse_columns``). numpy finds every line end
and comma in one pass and checks each timestamp's shape at fixed offsets. The
reader then converts the one field it wants, a chunk of rows at a time,
usually by gathering it into one fixed-width bytes array and converting that
with one cast (``cast_field``). The fields it does not convert it may check
from their bytes, as ``sensor_codec`` does for node rows. The cast's values
are exact because numpy's cast from bytes to float64 converts each element
with Python's ``float()``, as the row parsers do; the oracle tests in
``tests/test_csv_readers.py`` check this on numpy 2.4.6. A file that this
parse declines (not ASCII, a line break it does not split at, a row of
another shape, or for ``sensor_codec`` a chunk with a row outside the node's
own form) is decoded as UTF-8, and ``read_series`` walks its non-blank lines
with the row parser, which returns the same values for odd but valid rows,
and raises the ``path:lineno: ...`` error of the first bad one.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DataError

UTC = timezone.utc
HOUR_S = 3600
TIMESTAMP_FMT = "%Y-%m-%dT%H:%M:%SZ"
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
_COMMA, _LF, _CR = b",\n\r"
# The node's timestamp form, with each digit mapped to "0" as ``_DIGITS_AS_ZERO``
# maps it. Without its ``Z``, numpy parses it with no timezone warning and
# rejects out-of-range fields as ``strptime`` does; it also takes year 0000,
# which ``datetime`` does not, so parsed times must not fall before year 1.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)
_DIGITS_AS_ZERO = np.frombuffer(bytes.maketrans(b"123456789", b"0" * 9), np.uint8)
_YEAR_1 = np.datetime64("0001-01-01T00:00:00", "s")
# Rows parsed at a time, so that the gather indices grow with the chunk, not the file.
_CHUNK_ROWS = 4096
# The most buckets ``bucket_resample`` builds: 69 days at 60 s, or 11 years at one
# hour. A day at 60 s (calibrate) needs 1,440, and a week of hours (clean) 168.
MAX_BUCKETS = 100_000


def as_utc(ts: datetime) -> datetime:
    """Normalize an aware datetime to UTC. Naive datetimes are rejected."""
    if ts.tzinfo is None:
        raise DataError(f"naive timestamp not allowed: {ts!r}")
    return ts.astimezone(UTC)


def format_utc(ts: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ``, with the year zero-padded as ``parse_utc`` needs."""
    return as_utc(ts).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp with a trailing ``Z``. Raises ValueError."""
    return datetime.strptime(text, TIMESTAMP_FMT).replace(tzinfo=UTC)


@contextmanager
def overflow_as_data_error(what: str) -> Iterator[None]:
    """Raise a DataError naming ``what`` where the block overflows float64."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError:
            raise DataError(f"{what} overflows: values too large for float64") from None


def paired_floats(x: Sequence[float], y: Sequence[float], name: str,
                  min_points: int) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as float arrays; a DataError unless they have one length
    of at least the ``min_points`` that ``name`` needs."""
    a, b = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if a.size != b.size:
        raise DataError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < min_points:
        need = "one point" if min_points == 1 else f"{min_points} points"
        raise DataError(f"{name} needs at least {need}")
    return a, b


def floor_to(ts: datetime, step_s: int) -> datetime:
    """Round a timestamp down to a multiple of ``step_s`` seconds since the epoch."""
    return utc_datetime(math.floor(as_utc(ts).timestamp() / step_s) * step_s)


def utc_datetime(epoch_s: int) -> datetime:
    """The UTC datetime ``epoch_s`` seconds after 1970-01-01T00:00:00Z."""
    return EPOCH + timedelta(seconds=epoch_s)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Read-only 1-D arrays of int64 epoch seconds and float64 values, one entry
    per point; timestamps strictly increase and values are finite. Iterating
    yields ``(datetime, float)`` pairs. Compare series by their arrays.
    """

    epoch: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        epoch = np.array(self.epoch, dtype=np.int64)
        values = np.array(self.values, dtype=np.float64)
        if epoch.ndim != 1 or epoch.shape != values.shape:
            raise DataError("epoch and values must be 1-D arrays of equal length")
        back = np.flatnonzero(epoch[1:] <= epoch[:-1])
        if back.size:
            a, b = (utc_datetime(s) for s in epoch[back[0]:back[0] + 2].tolist())
            raise DataError(f"timestamps must strictly increase: {a} then {b}")
        bad = ~np.isfinite(values)
        if bad.any():
            raise DataError(f"non-finite value {values[bad][0].item()!r}")
        epoch.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.epoch.size

    def __iter__(self) -> Iterator[tuple[datetime, float]]:
        return zip(map(utc_datetime, self.epoch.tolist()), self.values.tolist())

    def with_values(self, values: Sequence[float]) -> "TimeSeries":
        return TimeSeries(self.epoch, values)


def bucket_resample(series: TimeSeries, bucket_s: int) -> TimeSeries:
    """Resample onto a regular grid of ``bucket_s``-second buckets.

    Each non-empty bucket becomes its points' arithmetic mean, stamped at the
    bucket start. Interior empty buckets are filled by linear interpolation
    between the nearest non-empty buckets; the grid starts and ends at the
    first/last non-empty bucket, so nothing is extrapolated. A grid of more
    than ``MAX_BUCKETS`` buckets raises DataError before it is built.
    """
    if len(series) == 0:
        raise DataError("cannot resample an empty series")
    if bucket_s < 1:
        raise DataError(f"bucket length must be at least 1 s, got {bucket_s}")
    idx = series.epoch // bucket_s
    b0, n = idx[0], idx[-1] - idx[0] + 1
    if n > MAX_BUCKETS:
        first, last = (format_utc(utc_datetime(int(b) * bucket_s)) for b in (idx[0], idx[-1]))
        raise DataError(f"the series spans {n} buckets of {bucket_s} s, from {first} to "
                        f"{last}, over the limit of {MAX_BUCKETS}")
    offsets = idx - b0
    # bincount adds in input order, as a per-point loop would.
    sums = np.bincount(offsets, weights=series.values, minlength=n)
    counts = np.bincount(offsets, minlength=n)
    filled = np.flatnonzero(counts > 0)
    means = sums[filled] / counts[filled]
    grid = np.interp(np.arange(n), filled, means)
    return TimeSeries((b0 + np.arange(n)) * bucket_s, grid)


def format_csv_series(series: TimeSeries, header: str) -> str:
    """CSV text: ``header``, then one ``timestamp,value`` row per point."""
    return "".join([header + "\n"] + [f"{format_utc(t)},{v:.6f}\n" for t, v in series])


def decode_utf8(path: str | Path, data: bytes) -> str:
    """``data``, the bytes of the file at ``path``, as UTF-8 text."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {exc.start} is not UTF-8") from None


def parse_columns(data: bytes, width: int | None,
                  convert: Callable[[np.ndarray, np.ndarray], np.ndarray | None],
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse the bytes of a ``timestamp,...`` CSV file column by column.

    Returns the epoch seconds of each row's first field and the values that
    ``convert(buf, edges)`` returns for each chunk of ``_CHUNK_ROWS`` rows:
    ``buf`` is the file's bytes, and row r's field i lies strictly between
    ``buf`` offsets ``edges[r, i]`` and ``edges[r, i + 1]``. With no
    ``width`` the first non-empty line is a header, which must hold a byte
    other than a space, and the width is that of the first data row.

    Returns None, for the caller's row parser, unless the file is ASCII, its
    lines end in ``\n`` or ``\r\n``, and it holds no other byte below 0x20
    (``str.splitlines`` breaks lines at some of them). Empty lines are
    skipped; every other line must have ``width`` fields, at least 2, the first
    one in the node's form ``YYYY-MM-DDTHH:MM:SSZ`` with a year other than
    0000, and ``convert`` must return values for every chunk.
    """
    if not data.isascii():
        return None
    buf = np.frombuffer(data, np.uint8)
    lf = np.flatnonzero(buf == _LF)
    cr = (lf > 0) & (buf[lf - 1] == _CR)
    if np.count_nonzero(buf < 0x20) != lf.size + np.count_nonzero(cr):
        return None
    starts = np.concatenate(([0], lf + 1))
    ends = np.append(lf - cr, buf.size)
    starts, ends = starts[ends > starts], ends[ends > starts]
    if width is None:
        if starts.size < 2 or not data[starts[0]:ends[0]].strip(b" "):
            return None
        starts, ends = starts[1:], ends[1:]
        width = data.count(b",", int(starts[0]), int(ends[0])) + 1
    if width < 2 or not starts.size:
        return None
    parts = []
    for first in range(0, starts.size, _CHUNK_ROWS):
        part = _parse_chunk(buf, starts[first:first + _CHUNK_ROWS],
                            ends[first:first + _CHUNK_ROWS], width, convert)
        if part is None:
            return None
        parts.append(part)
    epoch, values = zip(*parts)
    return np.concatenate(epoch), np.concatenate(values)


def _parse_chunk(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int,
                 convert: Callable[[np.ndarray, np.ndarray], np.ndarray | None],
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """``parse_columns`` on the rows from byte ``starts`` up to ``ends``."""
    commas = np.flatnonzero(buf[starts[0]:ends[-1]] == _COMMA) + starts[0]
    if commas.size != starts.size * (width - 1):
        return None
    commas = commas.reshape(starts.size, width - 1)
    # Each row's first comma follows its 20-byte timestamp, which holds none,
    # so with the total right every row holds exactly width - 1 commas.
    if not (commas[:, 0] == starts + 20).all():
        return None
    stamp = buf[starts[:, None] + np.arange(_STAMP.size)]
    if not (_DIGITS_AS_ZERO[stamp] == _STAMP).all():
        return None
    values = convert(buf, np.column_stack((starts - 1, commas, ends)))
    if values is None:
        return None
    try:
        epoch = stamp[:, :19].copy().view("S19")[:, 0].astype("datetime64[s]")
    except ValueError:
        return None
    if not (epoch >= _YEAR_1).all():
        return None
    return epoch.astype(np.int64), values


def cast_field(buf: np.ndarray, edges: np.ndarray, i: int) -> np.ndarray | None:
    """The float64 values of field ``i`` of each row of ``edges`` (see
    ``parse_columns``), counted from the end if negative, converted by numpy's
    bytes cast, which calls ``float()`` on each field; None if the rows have no
    field ``i`` or ``float()`` rejects one of them."""
    width = edges.shape[1] - 1
    if not -width <= i < width:
        return None
    i %= width
    lengths = edges[:, i + 1] - edges[:, i] - 1
    if lengths.min() < 1:  # float() rejects an empty field
        return None
    # Each field's bytes as one row, then zeros, which the bytes dtype drops.
    at = np.arange(lengths.max())
    octets = np.take(buf, edges[:, i, None] + 1 + at, mode="clip")
    octets[at >= lengths[:, None]] = 0
    try:
        return octets.view(f"S{at.size}")[:, 0].astype(np.float64)
    except ValueError:
        return None


def read_series(path: str | Path,
                parse_bytes: Callable[[bytes], tuple[np.ndarray, np.ndarray] | None],
                parse_line: Callable[[str], tuple[int, float]], *, header: bool) -> TimeSeries:
    """The series in the CSV file at ``path``.

    ``parse_bytes`` gives the epoch seconds and values of the file's bytes, or
    None to decline the file. A declined file is decoded as UTF-8, and each
    non-blank line, after a header line if ``header``, goes to
    ``parse_line``, which returns its ``(epoch, value)``; a DataError or
    ValueError it raises becomes the DataError ``path:lineno: message``.
    """
    data = Path(path).read_bytes()
    columns = parse_bytes(data)
    if columns is not None:
        return TimeSeries(*columns)
    lines = decode_utf8(path, data).splitlines()
    numbered = [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]
    if header:
        if not numbered:
            raise DataError(f"{path}: empty file")
        numbered = numbered[1:]
    if not numbered:
        raise DataError(f"{path}: {'no data rows' if header else 'no rows'}")
    epoch, values = [], []
    for lineno, line in numbered:
        try:
            t, v = parse_line(line)
        except (DataError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        epoch.append(t)
        values.append(v)
    return TimeSeries(epoch, values)


def read_csv_series(path: str | Path, value_col: int = 1) -> TimeSeries:
    """Read a headered CSV whose first column is an ISO UTC timestamp."""
    def parse_line(line: str) -> tuple[int, float]:
        fields = line.split(",")
        need = value_col + 1 if value_col >= 0 else -value_col
        if len(fields) < need:
            raise DataError(f"expected at least {need} columns")
        return int(parse_utc(fields[0]).timestamp()), float(fields[value_col])

    return read_series(
        path,
        lambda data: parse_columns(data, None, lambda buf, edges: cast_field(buf, edges, value_col)),
        parse_line, header=True)
