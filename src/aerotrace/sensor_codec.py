"""Sensor readings and the node CSV row format.

A ``SensorSample`` is one 10-second reading, as flat as its CSV row: a
timestamp and the six ``CSV_FIELDS``, the PM1.0, PM2.5 and PM10
concentrations of a PMS7003-style particulate sensor and the temperature,
humidity and pressure of a BME280-style environmental sensor. Each field's
range rule is written once, in ``_check_field``. The node writes each sample
as one CSV row (``sample_to_csv_row``). The analytics read one column of a
whole file from its bytes with ``parse_csv_columns`` when every row is in the
form the node writes, and any other file row by row with ``parse_csv_row``
(``series.read_series``).

The CSV row format is ``timestamp,pm1_0,pm2_5,pm10,temp_c,rh_pct,pressure_hpa``
with the timestamp in ISO-8601 UTC (``Z`` suffix, whole seconds), PM values as
integers, and the environmental floats rendered with two decimals.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import DataError
from .series import (
    UTC, as_utc, cast_field, format_utc, parse_columns, parse_utc)

CSV_FIELDS = ("pm1_0", "pm2_5", "pm10", "temp_c", "rh_pct", "pressure_hpa")
_PM_FIELDS = CSV_FIELDS[:3]
_ZERO, _ONE, _DOT, _MINUS = b"01.-"
_HUNDRED = np.frombuffer(b"100.00", np.uint8)


def _unparsable(parts: list[str], index: int) -> str:
    return f"field {index} unparsable: {parts[index]!r}"


def _check_field(name: str, value) -> None:
    """Raise a DataError unless ``value`` may be field ``name`` of a sample."""
    if name in _PM_FIELDS:
        if not isinstance(value, int) or value < 0:
            raise DataError(f"{name}={value!r} must be a non-negative integer")
    elif name == "rh_pct":
        if not 0.0 <= value <= 100.0:
            raise DataError(f"rh_pct={value} outside [0, 100]")
    elif name == "pressure_hpa" and value <= 0:  # so a nan pressure is valid
        raise DataError(f"pressure_hpa={value} must be positive")


@dataclass(frozen=True)
class SensorSample:
    """One 10-second reading: a UTC timestamp in whole seconds and ``CSV_FIELDS``."""

    timestamp: datetime
    pm1_0: int
    pm2_5: int
    pm10: int
    temp_c: float
    rh_pct: float
    pressure_hpa: float

    def __post_init__(self) -> None:
        ts = as_utc(self.timestamp)
        if ts.microsecond != 0:
            raise DataError(f"timestamp must have whole-second resolution: {ts}")
        object.__setattr__(self, "timestamp", ts)
        for name in CSV_FIELDS:
            _check_field(name, getattr(self, name))


def sample_to_csv_row(sample: SensorSample) -> str:
    return (
        f"{format_utc(sample.timestamp)},{sample.pm1_0},{sample.pm2_5},{sample.pm10},"
        f"{sample.temp_c:.2f},{sample.rh_pct:.2f},{sample.pressure_hpa:.2f}"
    )


def parse_csv_row(line: str) -> SensorSample:
    """Parse one CSV telemetry row; exact inverse of sample_to_csv_row on its output.
    A bad row raises ``field i unparsable`` for its leftmost bad field."""
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
        if parsed.tzinfo is None or parsed.utcoffset().total_seconds() != 0:
            raise DataError(f"timestamp is not UTC: {ts_text!r}") from None
        if parsed.microsecond != 0:
            raise DataError(_unparsable(parts, 0)) from None
        ts = parsed.astimezone(UTC)

    values = []
    for i, name in enumerate(CSV_FIELDS, start=1):
        try:
            value = (int if name in _PM_FIELDS else float)(parts[i])
            _check_field(name, value)
        except (ValueError, DataError):
            raise DataError(_unparsable(parts, i)) from None
        values.append(value)
    return SensorSample(ts, *values)


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
