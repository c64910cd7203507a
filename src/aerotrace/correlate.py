"""Joins hourly vehicle counts with cleaned PM2.5 and quantifies the
relationship, including a lag scan for delayed effects."""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Sequence

import numpy as np

from .chart import render_dual_axis_chart
from .errors import AerotraceError, DataError, SeriesTooShort, TooFewPoints
from .series import HOUR_S, TimeSeries, format_utc


class NoOverlap(DataError):
    pass


class ConstantInput(DataError):
    pass


class OutputUnwritable(AerotraceError):
    pass


@dataclass(frozen=True)
class JoinedSeries:
    """Vehicles/hour and scaled PM2.5 on one consecutive hourly grid."""

    hours: tuple[datetime, ...]
    vehicles: tuple[float, ...]
    pm25: tuple[float, ...]
    dropped_vehicles: int = 0
    dropped_pm25: int = 0

    def __post_init__(self) -> None:
        if not (len(self.hours) == len(self.vehicles) == len(self.pm25)):
            raise DataError("joined series lengths differ")
        for a, b in zip(self.hours, self.hours[1:]):
            if (b - a).total_seconds() != HOUR_S:
                raise DataError(f"joined hours must be consecutive: {a} then {b}")

    def __len__(self) -> int:
        return len(self.hours)


def _check_hourly(series: TimeSeries, name: str) -> None:
    for t in series.times:
        if t.timestamp() % HOUR_S != 0:
            raise DataError(f"{name} series is not hourly-bucketed: {t}")


def join_hourly(vehicles: TimeSeries, pm25: TimeSeries) -> JoinedSeries:
    """Inner join on hour_start; hours missing from either side are dropped."""
    _check_hourly(vehicles, "vehicles")
    _check_hourly(pm25, "pm25")
    v_map = dict(zip(vehicles.times, vehicles.values))
    p_map = dict(zip(pm25.times, pm25.values))
    common = sorted(set(v_map) & set(p_map))
    if not common:
        raise NoOverlap("the two series share no hours")
    return JoinedSeries(
        hours=tuple(common),
        vehicles=tuple(v_map[t] for t in common),
        pm25=tuple(p_map[t] for t in common),
        dropped_vehicles=len(vehicles) - len(common),
        dropped_pm25=len(pm25) - len(common),
    )


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.size != b.size:
        raise DataError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 3:
        raise TooFewPoints("pearson needs at least 3 points")
    if a.std() == 0 or b.std() == 0:
        raise ConstantInput("pearson is undefined for a constant input")
    return float(np.corrcoef(a, b)[0, 1])


@dataclass(frozen=True)
class LagCorrelation:
    lag: int   # hours the pm25 series trails the vehicle series
    r: float
    n: int

    def __post_init__(self) -> None:
        if abs(self.r) > 1.0 + 1e-12:
            raise DataError(f"|r|={self.r} exceeds 1")
        if self.n < 3:
            raise DataError("a reported correlation needs n >= 3")


@dataclass(frozen=True)
class LagScanResult:
    correlations: tuple[LagCorrelation, ...]
    best: LagCorrelation


def lagged_cross_correlation(joined: JoinedSeries, max_lag: int = 6) -> LagScanResult:
    """Correlate vehicles[0:n-k] with pm25[k:n] for each lag k, report the max-r lag."""
    n = len(joined)
    if max_lag < 0:
        raise DataError(f"max_lag must be non-negative, got {max_lag}")
    if n <= max_lag + 3:
        raise SeriesTooShort(f"need more than {max_lag + 3} joined hours, have {n}")
    results = []
    for k in range(max_lag + 1):
        v = joined.vehicles[:n - k] if k else joined.vehicles
        p = joined.pm25[k:]
        results.append(LagCorrelation(lag=k, r=pearson(v, p), n=n - k))
    best = max(results, key=lambda c: (c.r, -c.lag))
    return LagScanResult(correlations=tuple(results), best=best)


def emit_report(joined: JoinedSeries, lags: Sequence[LagCorrelation],
                out_dir: str | Path) -> list[Path]:
    """Write chart.svg plus CSV tables (joined series; lag table when non-empty)."""
    out = Path(out_dir)
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)

        svg = render_dual_axis_chart(
            joined.hours, joined.vehicles, joined.pm25,
            left_label="vehicles per hour", right_label="pm2.5 (scaled)",
            title="hourly vehicle crossings vs PM2.5")
        chart_path = out / "chart.svg"
        chart_path.write_text(svg)
        written.append(chart_path)

        joined_path = out / "joined.csv"
        rows = ["hour_start,vehicles,pm25"]
        rows += [f"{format_utc(t)},{v:.6f},{p:.6f}"
                 for t, v, p in zip(joined.hours, joined.vehicles, joined.pm25)]
        joined_path.write_text("\n".join(rows) + "\n")
        written.append(joined_path)

        if lags:
            lag_path = out / "lags.csv"
            rows = ["lag_hours,r,n"]
            rows += [f"{c.lag},{c.r:.6f},{c.n}" for c in lags]
            lag_path.write_text("\n".join(rows) + "\n")
            written.append(lag_path)
    except OSError as exc:
        raise OutputUnwritable(f"cannot write report under {out}: {exc}") from exc
    return written
