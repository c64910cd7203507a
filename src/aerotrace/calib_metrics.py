"""Sensor-evaluation metrics: time alignment, dynamic time warping, trailing
moving average, MAPE, RMSE, trend/cycle decomposition, and the combined report
used to judge a low-cost sensor against a reference instrument."""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import DataError, EmptyInput, SeriesTooShort
from .series import TimeSeries, bucket_resample

WarpPath = list[tuple[int, int]]


class NonPositiveLambda(DataError):
    pass


class AllReferenceZero(DataError):
    pass


class NoTemporalOverlap(DataError):
    pass


def dtw(reference: Sequence[float], test: Sequence[float]) -> tuple[float, WarpPath]:
    """Dynamic time warping with absolute-difference cost.

    Classic cumulative table D[i][j] = |a_i - b_j| + min(D[i-1][j], D[i][j-1],
    D[i-1][j-1]) anchored at D[0][0] = |a_0 - b_0|. Returns the total distance
    and one optimal path from (0, 0) to (n-1, m-1); ties in the backtrack are
    broken by preferring the diagonal step, then the step that advances the
    reference index.
    """
    a = np.asarray(reference, dtype=float)
    b = np.asarray(test, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptyInput("dtw needs two non-empty sequences")
    n, m = a.size, b.size
    cost = np.abs(a[:, None] - b[None, :])
    D = np.empty((n, m))
    D[0, 0] = cost[0, 0]
    for i in range(1, n):
        D[i, 0] = D[i - 1, 0] + cost[i, 0]
    for j in range(1, m):
        D[0, j] = D[0, j - 1] + cost[0, j]
    for i in range(1, n):
        row = D[i]
        prev = D[i - 1]
        for j in range(1, m):
            row[j] = cost[i, j] + min(prev[j - 1], prev[j], row[j - 1])

    path: WarpPath = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = D[i - 1, j - 1], D[i - 1, j], D[i, j - 1]
            best = min(diag, up, left)
            if diag == best:
                i, j = i - 1, j - 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return float(D[n - 1, m - 1]), path


def validate_warp_path(path: WarpPath, n: int, m: int) -> None:
    """Check boundary, monotonicity, and single-step continuity; raises DataError."""
    if not path or path[0] != (0, 0) or path[-1] != (n - 1, m - 1):
        raise DataError(f"path must run (0,0) -> ({n - 1},{m - 1})")
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        di, dj = i1 - i0, j1 - j0
        if (di, dj) not in ((1, 0), (0, 1), (1, 1)):
            raise DataError(f"illegal step ({i0},{j0}) -> ({i1},{j1})")


def warp_onto_reference(test: Sequence[float], path: WarpPath, n_ref: int) -> np.ndarray:
    """Collapse a warp path to one value per reference index.

    Each reference index i receives the mean of the test values the path
    matched to it, producing a test series re-indexed to the reference
    timestamps.
    """
    b = np.asarray(test, dtype=float)
    sums = np.zeros(n_ref)
    counts = np.zeros(n_ref)
    for i, j in path:
        sums[i] += b[j]
        counts[i] += 1
    if np.any(counts == 0):
        raise DataError("warp path does not cover every reference index")
    return sums / counts


def moving_average(series: TimeSeries, window: timedelta = timedelta(minutes=10)) -> TimeSeries:
    """Trailing time-based mean: value at t = mean of points in (t - window, t]."""
    if len(series) == 0:
        raise EmptyInput("moving_average needs a non-empty series")
    w = window.total_seconds()
    if w <= 0:
        raise DataError(f"moving-average window must be positive, got {w} s")
    times = series.epoch_array()
    vals = series.values_array()
    out = np.empty(len(vals))
    left = 0
    acc = 0.0
    for i in range(len(vals)):
        acc += vals[i]
        while times[left] <= times[i] - w:
            acc -= vals[left]
            left += 1
        out[i] = acc / (i - left + 1)
    return series.with_values(out)


class MapeResult(NamedTuple):
    pct: float
    skipped: int


def mape(reference: Sequence[float], test: Sequence[float]) -> MapeResult:
    """Mean absolute percentage error of test against reference.

    Points where the reference reads exactly zero cannot contribute a
    percentage; they are skipped and counted in the result.
    """
    a = np.asarray(reference, dtype=float)
    b = np.asarray(test, dtype=float)
    if a.size != b.size:
        raise DataError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise EmptyInput("mape needs at least one point")
    usable = a != 0
    skipped = int((~usable).sum())
    if not usable.any():
        raise AllReferenceZero("every reference value is zero")
    pct = float(np.mean(np.abs(b[usable] - a[usable]) / np.abs(a[usable]))) * 100.0
    return MapeResult(pct=pct, skipped=skipped)


def rmse(reference: Sequence[float], test: Sequence[float]) -> float:
    a = np.asarray(reference, dtype=float)
    b = np.asarray(test, dtype=float)
    if a.size != b.size:
        raise DataError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise EmptyInput("rmse needs at least one point")
    return float(np.sqrt(np.mean((b - a) ** 2)))


def hp_filter(values: Sequence[float], lam: float = 1600.0) -> tuple[np.ndarray, np.ndarray]:
    """Split a series into a smooth trend and the residual cycle.

    The trend minimizes sum((y - tau)^2) + lam * sum(second differences of
    tau squared), solved exactly via the sparse normal equations
    (I + lam * D'D) tau = y with D the second-difference operator.
    Returns (trend, cycle) with cycle = y - trend.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 4:
        raise SeriesTooShort(f"trend filter needs >= 4 points, got {y.size}")
    if not 0 < lam < np.inf:
        raise NonPositiveLambda(f"lambda must be positive and finite, got {lam}")
    n = y.size
    eye = sparse.eye(n, format="csc")
    data = np.repeat([[1.0], [-2.0], [1.0]], n, axis=1)
    D = sparse.dia_matrix((data, [0, 1, 2]), shape=(n - 2, n)).tocsc()
    trend = spsolve(eye + lam * (D.T @ D), y)
    return trend, y - trend


def trend_match_score(cycle_ref: Sequence[float], cycle_test: Sequence[float]) -> float:
    """Percentage of points where the two cycle series do not disagree in sign.

    A zero cycle value matches either sign, so exactly-on-trend moments are
    never penalized.
    """
    a = np.asarray(cycle_ref, dtype=float)
    b = np.asarray(cycle_test, dtype=float)
    if a.size != b.size:
        raise DataError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise EmptyInput("trend_match_score needs at least one point")
    agree = np.sign(a) * np.sign(b) >= 0
    return float(agree.sum()) / a.size * 100.0


@dataclass(frozen=True)
class AlignedPair:
    """Reference and test series resampled onto one shared timestamp grid."""

    times: tuple[datetime, ...]
    reference: np.ndarray
    test: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.times) == self.reference.size == self.test.size):
            raise DataError("aligned pair lengths differ")
        if len(self.times) < 2:
            raise SeriesTooShort("aligned pair needs >= 2 shared points")


def align_pair(reference: TimeSeries, test: TimeSeries, grid_step_s: int = 60) -> AlignedPair:
    """Resample both series onto a shared regular grid restricted to their overlap."""
    if len(reference) < 2 or len(test) < 2:
        raise SeriesTooShort("alignment needs >= 2 points per series")
    ref_g = bucket_resample(reference, grid_step_s)
    test_g = bucket_resample(test, grid_step_s)
    common = sorted(set(ref_g.times) & set(test_g.times))
    if len(common) < 2:
        raise NoTemporalOverlap("series do not share at least 2 grid buckets")
    ref_map = dict(zip(ref_g.times, ref_g.values))
    test_map = dict(zip(test_g.times, test_g.values))
    return AlignedPair(
        times=tuple(common),
        reference=np.array([ref_map[t] for t in common]),
        test=np.array([test_map[t] for t in common]),
    )


@dataclass(frozen=True)
class CalibrationReport:
    mape_pct: float
    rmse: float
    trend_match_pct: float
    dtw_distance: float
    n_points: int
    data_range: tuple[float, float]
    mape_skipped: int
    window_s: float
    lam: float
    grid_step_s: int

    def __post_init__(self) -> None:
        if self.mape_pct < 0 or self.rmse < 0:
            raise DataError("error metrics cannot be negative")
        if not 0.0 <= self.trend_match_pct <= 100.0:
            raise DataError("trend_match_pct outside [0, 100]")


def calibration_report(reference: TimeSeries, test: TimeSeries,
                       window: timedelta = timedelta(minutes=10),
                       lam: float = 1600.0,
                       grid_step_s: int = 60) -> CalibrationReport:
    """Full evaluation pipeline for a device-under-test against a reference sensor.

    Align both series to a shared grid, warp the test series onto the
    reference with DTW, smooth both with the trailing moving average, then
    compute MAPE and RMSE on the smoothed pair and the trend-match score on
    their trend-filter cycles.
    """
    pair = align_pair(reference, test, grid_step_s)
    distance, path = dtw(pair.reference, pair.test)
    warped = warp_onto_reference(pair.test, path, n_ref=pair.reference.size)

    ref_series = TimeSeries(pair.times, tuple(pair.reference))
    test_series = TimeSeries(pair.times, tuple(warped))
    ref_ma = moving_average(ref_series, window).values_array()
    test_ma = moving_average(test_series, window).values_array()

    mape_res = mape(ref_ma, test_ma)
    err = rmse(ref_ma, test_ma)
    _, cycle_ref = hp_filter(ref_ma, lam)
    _, cycle_test = hp_filter(test_ma, lam)
    trend_pct = trend_match_score(cycle_ref, cycle_test)

    lo = float(min(pair.reference.min(), warped.min()))
    hi = float(max(pair.reference.max(), warped.max()))
    return CalibrationReport(
        mape_pct=mape_res.pct,
        rmse=err,
        trend_match_pct=trend_pct,
        dtw_distance=distance,
        n_points=pair.reference.size,
        data_range=(lo, hi),
        mape_skipped=mape_res.skipped,
        window_s=window.total_seconds(),
        lam=lam,
        grid_step_s=grid_step_s,
    )


def format_report(report: CalibrationReport) -> str:
    """Flat text rendering, one key=value per line."""
    lines = [
        f"mape_pct={report.mape_pct:.6f}",
        f"rmse={report.rmse:.6f}",
        f"trend_match_pct={report.trend_match_pct:.6f}",
        f"dtw_distance={report.dtw_distance:.6f}",
        f"n_points={report.n_points}",
        f"data_range_min={report.data_range[0]:.6f}",
        f"data_range_max={report.data_range[1]:.6f}",
        f"mape_skipped={report.mape_skipped}",
        f"window_s={report.window_s:.0f}",
        f"lambda={report.lam:.6g}",
        f"grid_step_s={report.grid_step_s}",
    ]
    return "\n".join(lines) + "\n"
