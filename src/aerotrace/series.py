"""Immutable time series plus the resampling and CSV helpers shared by the analytics modules.

A ``TimeSeries`` is two read-only numpy arrays, int64 epoch seconds and float64
values; datetimes are built only where text is written. A CSV reader reads its
file once (``read_rows``) and parses it column by column (``parse_columns``).
When a row does not fit that parse, the reader walks the rows with its row
parser instead, which returns the same values for odd but valid rows and raises
the ``path:lineno: ...`` error of the first bad one.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError

UTC = timezone.utc
HOUR_S = 3600
TIMESTAMP_FMT = "%Y-%m-%dT%H:%M:%SZ"
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
# The node's timestamp form. Without its ``Z``, numpy parses it with no timezone
# warning and rejects out-of-range fields as ``strptime`` does; the lookahead
# rejects year 0000, which numpy takes and ``datetime`` does not.
_NODE_STAMP = re.compile(r"(?!0000)[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")
# Rows split at a time, so that the field strings of a whole file are never all alive.
_CHUNK_ROWS = 4096


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
    first/last non-empty bucket, so nothing is extrapolated.
    """
    if len(series) == 0:
        raise DataError("cannot resample an empty series")
    if bucket_s < 1:
        raise DataError(f"bucket length must be at least 1 s, got {bucket_s}")
    idx = series.epoch // bucket_s
    b0, n = idx[0], idx[-1] - idx[0] + 1
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


def read_rows(path: str | Path) -> tuple[list[int], list[str]]:
    """The 1-based physical line numbers and the text of a file's non-blank lines."""
    lines = Path(path).read_text().splitlines()
    linenos = [lineno for lineno, line in enumerate(lines, start=1) if line.strip()]
    return linenos, [lines[lineno - 1] for lineno in linenos]


def parse_columns(lines: list[str], width: int,
                  kinds: dict[int, type]) -> list[np.ndarray] | None:
    """Parse non-empty ``timestamp,...`` lines column by column.

    Returns the epoch seconds of the first field, then, for each ``index: kind``
    of ``kinds``, that field of every row converted exactly as ``kind()``
    (``int`` or ``float``) converts it. Returns None unless every row has
    ``width`` fields, the node's timestamp form and fields ``kind()`` accepts.
    """
    parts = []
    for start in range(0, len(lines), _CHUNK_ROWS):
        chunk = lines[start:start + _CHUNK_ROWS]
        if any(line.count(",") != width - 1 for line in chunk):
            return None
        flat = ",".join(chunk).split(",")
        fields = [flat[i::width] for i in range(width)]
        if not all(map(_NODE_STAMP.fullmatch, fields[0])):
            return None
        try:
            stamps = np.array([text[:-1] for text in fields[0]], dtype="datetime64[s]")
            parts.append([stamps.astype(np.int64)] + [
                np.fromiter(map(kind, fields[i]), kind, len(chunk)) for i, kind in kinds.items()])
        except (IndexError, ValueError, OverflowError):
            return None
    return [np.concatenate(column) for column in zip(*parts)]


def read_csv_series(path: str | Path, value_col: int = 1) -> TimeSeries:
    """Read a headered CSV whose first column is an ISO UTC timestamp."""
    linenos, lines = read_rows(path)
    if not lines:
        raise DataError(f"{path}: empty file")
    linenos, lines = linenos[1:], lines[1:]
    if not lines:
        raise DataError(f"{path}: no data rows")
    columns = parse_columns(lines, lines[0].count(",") + 1, {value_col: float})
    if columns is not None:
        return TimeSeries(*columns)
    epoch, values = [], []
    for lineno, line in zip(linenos, lines):
        fields = line.split(",")
        if value_col >= len(fields):
            raise DataError(f"{path}:{lineno}: expected at least {value_col + 1} columns")
        try:
            t = parse_utc(fields[0])
            v = float(fields[value_col])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        epoch.append(int(t.timestamp()))
        values.append(v)
    return TimeSeries(epoch, values)
