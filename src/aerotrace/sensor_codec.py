"""Sensor readings and the node CSV row format.

The PM sensor's serial frame is specified in the Plantower PMS7003 datasheet.

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
from .series import UTC, as_utc, format_utc, parse_columns, parse_utc

CSV_FIELDS = ("pm1_0", "pm2_5", "pm10", "temp_c", "rh_pct", "pressure_hpa")


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
    to what ``parse_csv_row`` gives for each non-empty row. None unless
    ``series.parse_columns`` takes the file, its PM fields are plain digits and
    every row passes the checks of ``parse_csv_row``.
    """
    index = CSV_FIELDS.index(column) + 1
    # temp_c is converted only so that a field float() rejects declines the parse.
    columns = parse_columns(data, 7, [index, 5, 6, 4], counts=(1, 2, 3))
    if columns is None:
        return None
    epoch, values, rh_pct, pressure_hpa, _ = columns
    valid = (rh_pct >= 0.0) & (rh_pct <= 100.0) & ~(pressure_hpa <= 0)
    return (epoch, values) if valid.all() else None
