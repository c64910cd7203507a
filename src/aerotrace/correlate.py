"""Joins hourly vehicle counts with cleaned PM2.5 and quantifies the
relationship, including a lag scan for delayed effects."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .chart import render_dual_axis_chart
from .errors import AerotraceError, DataError
from .series import (
    HOUR_S, TimeSeries, format_utc, overflow_as_data_error, paired_floats, utc_datetime)


@dataclass(frozen=True, eq=False)
class JoinedSeries:
    """Vehicles/hour and scaled PM2.5 on one consecutive hourly grid of epoch seconds."""

    epoch: np.ndarray
    vehicles: np.ndarray
    pm25: np.ndarray

    def __post_init__(self) -> None:
        gaps = np.flatnonzero(np.diff(self.epoch) != HOUR_S)
        if gaps.size:
            a, b = (utc_datetime(s) for s in self.epoch[gaps[0]:gaps[0] + 2].tolist())
            raise DataError(f"joined hours must be consecutive: {a} then {b}")

    def __len__(self) -> int:
        return self.epoch.size


def _check_hourly(series: TimeSeries, name: str) -> None:
    off = np.flatnonzero(series.epoch % HOUR_S)
    if off.size:
        t = utc_datetime(series.epoch[off[0]].item())
        raise DataError(f"{name} series is not hourly-bucketed: {t}")


def join_hourly(vehicles: TimeSeries, pm25: TimeSeries) -> JoinedSeries:
    """Inner join on hour_start; hours missing from either side are dropped."""
    _check_hourly(vehicles, "vehicles")
    _check_hourly(pm25, "pm25")
    common, vi, pi = np.intersect1d(vehicles.epoch, pm25.epoch, assume_unique=True,
                                    return_indices=True)
    if not common.size:
        raise DataError("the two series share no hours")
    return JoinedSeries(epoch=common, vehicles=vehicles.values[vi], pm25=pm25.values[pi])


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    a, b = paired_floats(x, y, "pearson", 3)
    with overflow_as_data_error(f"pearson r of {a.size} points"):
        if a.std() == 0 or b.std() == 0:
            raise DataError("pearson is undefined for a constant input")
        return float(np.corrcoef(a, b)[0, 1])


@dataclass(frozen=True)
class LagCorrelation:
    lag: int   # hours the pm25 series trails the vehicle series
    r: float
    n: int


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
        raise DataError(f"need more than {max_lag + 3} joined hours, have {n}")
    results = []
    for k in range(max_lag + 1):
        r = pearson(joined.vehicles[:n - k], joined.pm25[k:])
        results.append(LagCorrelation(lag=k, r=r, n=n - k))
    best = max(results, key=lambda c: (c.r, -c.lag))
    return LagScanResult(correlations=tuple(results), best=best)


def emit_report(joined: JoinedSeries, lags: Sequence[LagCorrelation],
                out_dir: str | Path) -> list[Path]:
    """Write chart.svg plus CSV tables (joined series; lag table when non-empty)."""
    out = Path(out_dir)
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)

        hours = [utc_datetime(s) for s in joined.epoch.tolist()]
        vehicles, pm25 = joined.vehicles.tolist(), joined.pm25.tolist()
        svg = render_dual_axis_chart(
            hours, vehicles, pm25,
            left_label="vehicles per hour", right_label="pm2.5 (scaled)",
            title="hourly vehicle crossings vs PM2.5")
        chart_path = out / "chart.svg"
        chart_path.write_text(svg)
        written.append(chart_path)

        joined_path = out / "joined.csv"
        rows = ["hour_start,vehicles,pm25"]
        rows += [f"{format_utc(t)},{v:.6f},{p:.6f}"
                 for t, v, p in zip(hours, vehicles, pm25)]
        joined_path.write_text("\n".join(rows) + "\n")
        written.append(joined_path)

        if lags:
            lag_path = out / "lags.csv"
            rows = ["lag_hours,r,n"]
            rows += [f"{c.lag},{c.r:.6f},{c.n}" for c in lags]
            lag_path.write_text("\n".join(rows) + "\n")
            written.append(lag_path)
    except OSError as exc:
        raise AerotraceError(f"cannot write report under {out}: {exc}") from exc
    return written
