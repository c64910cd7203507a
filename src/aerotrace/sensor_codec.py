"""Sensor readings and the node CSV row format.

A ``SensorSample`` is one 10-second reading: the PM1.0, PM2.5 and PM10
concentrations of a PMS7003-style particulate sensor and the temperature,
humidity and pressure of the environmental sensor (``EnvReading``). The node
writes each sample as one CSV row (``sample_to_csv_row``). The analytics read
one column of a whole file from its bytes with ``parse_csv_columns`` when
every row is in the form the node writes, and any other file row by row with
``parse_csv_row``.

The CSV row format is ``timestamp,pm1_0,pm2_5,pm10,temp_c,rh_pct,pressure_hpa``
with the timestamp in ISO-8601 UTC (``Z`` suffix, whole seconds), PM values as
integers, and the environmental floats rendered with two decimals. Its field
names after the timestamp are ``CSV_FIELDS``.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import DataError
from .series import (
    UTC, as_utc, cast_field, format_utc, parse_columns, parse_utc)

CSV_FIELDS = ("pm1_0", "pm2_5", "pm10", "temp_c", "rh_pct", "pressure_hpa")
_ZERO, _ONE, _DOT, _MINUS = b"01.-"
_HUNDRED = np.frombuffer(b"100.00", np.uint8)


def _unparsable(parts: list[str], index: int) -> str:
    return f"field {index} unparsable: {parts[index]!r}"


@dataclass(frozen=True)
class EnvReading:
    """Temperature, relative humidity, and pressure from the environmental sensor."""

    temp_c: float
    rh_pct: float
    pressure_hpa: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rh_pct <= 100.0:
            raise DataError(f"rh_pct={self.rh_pct} outside [0, 100]")
        if self.pressure_hpa <= 0:
            raise DataError(f"pressure_hpa={self.pressure_hpa} must be positive")


@dataclass(frozen=True)
class SensorSample:
    """One 10-second reading: PM concentrations plus the environmental block."""

    timestamp: datetime
    pm1_0: int
    pm2_5: int
    pm10: int
    env: EnvReading

    def __post_init__(self) -> None:
        ts = as_utc(self.timestamp)
        if ts.microsecond != 0:
            raise DataError(f"timestamp must have whole-second resolution: {ts}")
        object.__setattr__(self, "timestamp", ts)
        for name in ("pm1_0", "pm2_5", "pm10"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise DataError(f"{name}={v!r} must be a non-negative integer")


def sample_to_csv_row(sample: SensorSample) -> str:
    env = sample.env
    return (
        f"{format_utc(sample.timestamp)},{sample.pm1_0},{sample.pm2_5},{sample.pm10},"
        f"{env.temp_c:.2f},{env.rh_pct:.2f},{env.pressure_hpa:.2f}"
    )


def parse_csv_row(line: str) -> SensorSample:
    """Parse one CSV telemetry row; exact inverse of sample_to_csv_row on its output."""
    parts = line.strip().split(",")
    if len(parts) != 7:
        raise DataError(f"expected 7 fields, got {len(parts)}")

    ts_text = parts[0]
    try:
        ts = parse_utc(ts_text)
    except ValueError:
        # Recognizable ISO timestamps in another offset are rejected as non-UTC
        # rather than unparsable.
        try:
            parsed = datetime.fromisoformat(ts_text)
        except ValueError:
            raise DataError(_unparsable(parts, 0)) from None
        if parsed.tzinfo is not None and parsed.utcoffset().total_seconds() == 0:
            ts = parsed.astimezone(UTC)
        else:
            raise DataError(f"timestamp is not UTC: {ts_text!r}") from None

    ints = []
    for i in (1, 2, 3):
        try:
            ints.append(int(parts[i]))
        except ValueError:
            raise DataError(_unparsable(parts, i)) from None
    floats = []
    for i in (4, 5, 6):
        try:
            floats.append(float(parts[i]))
        except ValueError:
            raise DataError(_unparsable(parts, i)) from None

    try:
        env = EnvReading(temp_c=floats[0], rh_pct=floats[1], pressure_hpa=floats[2])
    except DataError:
        bad = 5 if not 0.0 <= floats[1] <= 100.0 else 6
        raise DataError(_unparsable(parts, bad)) from None
    try:
        return SensorSample(timestamp=ts, pm1_0=ints[0], pm2_5=ints[1], pm10=ints[2], env=env)
    except DataError:
        # A negative PM, or else a sub-second timestamp in a zero-offset form.
        bad = next((i for i, v in zip((1, 2, 3), ints) if v < 0), 0)
        raise DataError(_unparsable(parts, bad)) from None


def parse_csv_columns(data: bytes, column: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Epoch seconds and the ``column`` values of a telemetry file's bytes, equal
    to what ``parse_csv_row`` gives for each non-empty row. None, for the
    caller's row parser, unless ``series.parse_columns`` takes the file and
    every row is in the node's own form.

    Only ``column`` is converted. The other fields are checked from the bytes
    of each chunk of rows (``_node_shape``). A chunk with one row outside the
    node's form, even one that ``parse_csv_row`` accepts (a ``nan`` pressure),
    declines the byte parse, and the whole file goes to the row parser.
    """
    index = CSV_FIELDS.index(column) + 1
    return parse_columns(data, 7, lambda buf, edges: _column_values(buf, edges, index))


def _column_values(buf: np.ndarray, edges: np.ndarray, index: int) -> np.ndarray | None:
    """The values of field ``index`` of a chunk's rows, or None unless each row
    is in the node's own form."""
    if not _node_shape(buf, edges):
        return None
    return _pm_values(buf, edges, index) if index <= 3 else cast_field(buf, edges, index)


def _pm_values(buf: np.ndarray, edges: np.ndarray, i: int) -> np.ndarray:
    """Field ``i`` of each row, 1 to 15 digits, as float64. Every digit times
    its power of ten, and every partial sum, is an integer below 10**15 < 2**53,
    so the sum is exact in any order and equals ``float()`` of the digits."""
    ends = edges[:, i + 1]
    lengths = ends - edges[:, i] - 1
    before = np.arange(lengths.max(), 0, -1)  # bytes before the field's end
    digits = buf[ends[:, None] - before] - _ZERO
    digits[before > lengths[:, None]] = 0
    return digits @ 10.0 ** (before - 1)


def _node_shape(buf: np.ndarray, edges: np.ndarray) -> bool:
    """Whether each row is in a form that ``parse_csv_row`` accepts, read from
    its bytes alone: PM fields of 1 to 15 digits, and environmental fields of
    digits with a ``.`` three bytes before their end and a ``-`` at most as
    ``temp_c``'s first byte, ``rh_pct`` at most ``100.00`` and
    ``pressure_hpa`` at least ``1.00``. ``sample_to_csv_row`` writes this form
    for every sample with PM values below 10**15, a finite temperature and a
    pressure of at least 1 hPa.

    The stamps and commas are already checked, so one count of the chunk's
    digit bytes shows that every byte not at a known place is a digit.
    """
    lengths = np.diff(edges, axis=1) - 1
    pm, env = lengths[:, 1:4], lengths[:, 4:]
    # Three bytes keep each ``.`` inside its own field.
    if pm.min() < 1 or pm.max() > 15 or env.min() < 3 or lengths[:, 5].max() > 6:
        return False
    if not (buf[edges[:, 5:] - 3] == _DOT).all():
        return False
    if not (buf[edges[:, 6] + 1] - _ONE < 9).all():
        return False
    hundred = edges[lengths[:, 5] == 6, 5]
    if not (buf[hundred[:, None] + 1 + np.arange(6)] == _HUNDRED).all():
        return False
    signs = np.count_nonzero(buf[edges[:, 4] + 1] == _MINUS)
    digits = np.count_nonzero(buf[edges[0, 0] + 1:edges[-1, -1]] - _ZERO < 10)
    # A stamp holds 6 bytes other than digits, and the environmental fields 3 dots.
    return bool(digits == lengths.sum() - 9 * lengths.shape[0] - signs)
