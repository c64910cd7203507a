"""Immutable time series plus the resampling and CSV helpers shared by the analytics modules."""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError, EmptyInput

UTC = timezone.utc
HOUR_S = 3600
TIMESTAMP_FMT = "%Y-%m-%dT%H:%M:%SZ"


def as_utc(ts: datetime) -> datetime:
    """Normalize an aware datetime to UTC. Naive datetimes are rejected."""
    if ts.tzinfo is None:
        raise DataError(f"naive timestamp not allowed: {ts!r}")
    return ts.astimezone(UTC)


def format_utc(ts: datetime) -> str:
    return as_utc(ts).strftime(TIMESTAMP_FMT)


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp with a trailing ``Z``. Raises ValueError."""
    return datetime.strptime(text, TIMESTAMP_FMT).replace(tzinfo=UTC)


def floor_to(ts: datetime, step_s: int) -> datetime:
    """Round a timestamp down to a multiple of ``step_s`` seconds since the epoch."""
    epoch = math.floor(as_utc(ts).timestamp() / step_s) * step_s
    return datetime.fromtimestamp(epoch, tz=UTC)


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (timestamp, value) pairs; timestamps strictly increase, values are finite."""

    times: tuple[datetime, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise DataError("times and values must have equal length")
        object.__setattr__(self, "times", tuple(as_utc(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for a, b in zip(self.times, self.times[1:]):
            if b <= a:
                raise DataError(f"timestamps must strictly increase: {a} then {b}")
        for v in self.values:
            if not math.isfinite(v):
                raise DataError(f"non-finite value {v!r}")

    @classmethod
    def from_points(cls, points: Iterable[tuple[datetime, float]]) -> "TimeSeries":
        pts = list(points)
        return cls(tuple(t for t, _ in pts), tuple(v for _, v in pts))

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[datetime, float]]:
        return iter(zip(self.times, self.values))

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def epoch_array(self) -> np.ndarray:
        return np.asarray([t.timestamp() for t in self.times], dtype=float)

    def with_values(self, values: Iterable[float]) -> "TimeSeries":
        return TimeSeries(self.times, tuple(values))


def bucket_resample(series: TimeSeries, bucket_s: int) -> TimeSeries:
    """Resample onto a regular grid of ``bucket_s``-second buckets.

    Each non-empty bucket becomes its points' arithmetic mean, stamped at the
    bucket start. Interior empty buckets are filled by linear interpolation
    between the nearest non-empty buckets; the grid starts and ends at the
    first/last non-empty bucket, so nothing is extrapolated.
    """
    if len(series) == 0:
        raise EmptyInput("cannot resample an empty series")
    if bucket_s < 1:
        raise DataError(f"bucket length must be at least 1 s, got {bucket_s}")
    idx = [math.floor(t.timestamp() / bucket_s) for t in series.times]
    b0, n = idx[0], idx[-1] - idx[0] + 1
    offsets = np.array(idx) - b0
    # bincount adds in input order, as a per-point loop would.
    sums = np.bincount(offsets, weights=series.values, minlength=n)
    counts = np.bincount(offsets, minlength=n)
    filled = np.flatnonzero(counts > 0)
    means = sums[filled] / counts[filled]
    grid = np.interp(np.arange(n), filled, means)
    times = tuple(datetime.fromtimestamp((b0 + k) * bucket_s, tz=UTC) for k in range(n))
    return TimeSeries(times, tuple(float(x) for x in grid))


def write_csv_series(path: str | Path, series: TimeSeries, header: str = "hour_start,value",
                     fmt: str = "%.6f") -> None:
    lines = [header]
    lines += [f"{format_utc(t)},{fmt % v}" for t, v in series]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv_series(path: str | Path, value_col: int = 1) -> TimeSeries:
    """Read a headered CSV whose first column is an ISO UTC timestamp."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if value_col >= len(fields):
            raise DataError(f"{path}:{lineno}: expected at least {value_col + 1} columns")
        try:
            t = parse_utc(fields[0])
            v = float(fields[value_col])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        points.append((t, v))
    if not points:
        raise DataError(f"{path}: no data rows")
    return TimeSeries.from_points(points)
