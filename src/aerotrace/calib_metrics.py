"""Sensor-evaluation metrics: time alignment, dynamic time warping, trailing
moving average, MAPE, RMSE, trend/cycle decomposition, and the combined report
used to judge a low-cost sensor against a reference instrument."""
from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .series import TimeSeries, bucket_resample, overflow_as_data_error

WarpPath = list[tuple[int, int]]
# The most cells ``dtw`` fills, an 800 MB table: 48 times the 1441 x 1441 of a
# day at 60 s.
MAX_DTW_CELLS = 10**8


def dtw(reference: Sequence[float], test: Sequence[float]) -> tuple[float, WarpPath]:
    """Dynamic time warping with absolute-difference cost.

    Classic cumulative table D[i][j] = |a_i - b_j| + min(D[i-1][j], D[i][j-1],
    D[i-1][j-1]) anchored at D[0][0] = |a_0 - b_0|. Returns the total distance
    and one optimal path from (0, 0) to (n-1, m-1); ties in the backtrack are
    broken by preferring the diagonal step, then the step that advances the
    reference index.

    The table is filled in wavefront order, one anti-diagonal i + j = k per
    numpy pass, since each cell depends only on the two diagonals before it.
    D is stored inside one padded (n+1) x (m+1) table with a +inf border
    and a 0 corner, kept diagonal by diagonal in one flat float64 array:
    padded cell (i, k - i) sits at ``base[k] + i``. Each pass then reads
    three contiguous slices and writes one, and the fill needs
    (n+1)(m+1) * 8 bytes (16.6 MB for n = m = 1440); each diagonal's costs
    are computed in its own cells. Every cell gets the same ``cost + min`` of the
    same three values as in a row-by-row fill, so the result is
    bit-identical to it. Non-finite input raises ``DataError``, because with
    a NaN that minimum would depend on argument order, and so do a table
    of more than ``MAX_DTW_CELLS`` cells, before it is allocated, and a fill
    in which any cost or sum overflows float64, even off the best path.
    """
    a = np.asarray(reference, dtype=float)
    b = np.asarray(test, dtype=float)
    if a.size == 0 or b.size == 0:
        raise DataError("dtw needs two non-empty sequences")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("dtw needs finite values")
    n, m = a.size, b.size
    if n * m > MAX_DTW_CELLS:
        raise DataError(f"dtw of {n} x {m} points needs {n * m} cells, "
                        f"over the limit of {MAX_DTW_CELLS}")
    # Diagonal k holds padded rows max(0, k - m) to min(n, k).
    diagonals = np.arange(n + m + 1)
    first = np.maximum(0, diagonals - m)
    sizes = np.minimum(n, diagonals) - first + 1
    base = (np.cumsum(sizes) - sizes - first).tolist()
    flat = np.full((n + 1) * (m + 1), np.inf)
    flat[0] = 0.0
    # The test value of padded cell (i, k - i) is b[k - i - 1] = b_rev[m - k + i],
    # which rises with i.
    b_rev = b[::-1]
    scratch = np.empty(min(n, m))
    with overflow_as_data_error(f"dtw of {n} x {m} points"):
        for k in range(2, n + m + 1):
            lo, hi = max(1, k - m), min(n, k - 1)
            size = hi - lo + 1
            cells, least = flat[base[k] + lo:base[k] + lo + size], scratch[:size]
            # The cells' (i - 1, j - 1) start at d2, their (i - 1, j) at d1 and
            # their (i, j - 1) at d1 + 1.
            d2, d1 = base[k - 2] + lo - 1, base[k - 1] + lo - 1
            np.subtract(a[lo - 1:hi], b_rev[m - k + lo:m - k + hi + 1], out=cells)
            np.abs(cells, out=cells)
            np.minimum(flat[d2:d2 + size], flat[d1:d1 + size], out=least)
            np.minimum(least, flat[d1 + 1:d1 + 1 + size], out=least)
            np.add(cells, least, out=cells)

    def D(i: int, j: int) -> float:
        return flat[base[i + j + 2] + i + 1]

    path: WarpPath = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = D(i - 1, j - 1), D(i - 1, j), D(i, j - 1)
            best = min(diag, up, left)
            if diag == best:
                i, j = i - 1, j - 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return float(D(n - 1, m - 1)), path


def warp_onto_reference(test: Sequence[float], path: WarpPath, n_ref: int) -> np.ndarray:
    """Collapse a warp path to one value per reference index.

    Each reference index i receives the mean of the test values the path
    matched to it, producing a test series re-indexed to the reference
    timestamps.
    """
    b = np.asarray(test, dtype=float)
    i, j = np.asarray(path, dtype=np.intp).reshape(-1, 2).T
    counts = np.bincount(i, minlength=n_ref)
    if counts.size != n_ref or not counts.all():
        raise DataError("warp path does not cover every reference index")
    return np.bincount(i, weights=b[j], minlength=n_ref) / counts


def moving_average(series: TimeSeries, window: timedelta = timedelta(minutes=10)) -> TimeSeries:
    """Trailing time-based mean: value at t = mean of points in (t - window, t].

    A running sum that overflows float64 stays non-finite, so one check of
    the output after the loop finds it and raises ``DataError``.
    """
    if len(series) == 0:
        raise DataError("moving_average needs a non-empty series")
    w = window.total_seconds()
    if w <= 0:
        raise DataError(f"moving-average window must be positive, got {w} s")
    # Python numbers, not numpy scalars: the same operations in the same order,
    # at a tenth of the cost.
    times, vals = series.epoch.tolist(), series.values.tolist()
    out = []
    left = 0
    acc = 0.0
    for i, (t, v) in enumerate(zip(times, vals)):
        acc += v
        while times[left] <= t - w:
            acc -= vals[left]
            left += 1
        out.append(acc / (i - left + 1))
    if not np.isfinite(out).all():
        raise DataError(f"moving average of {len(out)} points overflows: "
                        "values too large for float64")
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
        raise DataError("mape needs at least one point")
    usable = a != 0
    skipped = int((~usable).sum())
    if not usable.any():
        raise DataError("every reference value is zero")
    with overflow_as_data_error(f"mape of {a.size} points"):
        pct = float(np.mean(np.abs(b[usable] - a[usable]) / np.abs(a[usable])) * 100.0)
    return MapeResult(pct=pct, skipped=skipped)


def rmse(reference: Sequence[float], test: Sequence[float]) -> float:
    a = np.asarray(reference, dtype=float)
    b = np.asarray(test, dtype=float)
    if a.size != b.size:
        raise DataError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise DataError("rmse needs at least one point")
    with overflow_as_data_error(f"rmse of {a.size} points"):
        return float(np.sqrt(np.mean((b - a) ** 2)))


# 1 + 16 * lam bounds the condition number of I + lam * D'D, since 16 bounds
# the largest eigenvalue of D'D. Past this lam (about 2.8e10) the solve can
# keep fewer than four significant digits of the trend.
MAX_LAMBDA = (1e-4 / np.finfo(float).eps - 1) / 16


def hp_filter(values: Sequence[float], lam: float = 1600.0) -> tuple[np.ndarray, np.ndarray]:
    """Split a series into a smooth trend and the residual cycle.

    The trend minimizes sum((y - tau)^2) + lam * sum(second differences of
    tau squared), solved exactly from the normal equations
    (I + lam * D'D) tau = y with D the second-difference operator, for
    0 < lam <= MAX_LAMBDA. Returns (trend, cycle) with cycle = y - trend.

    I + lam * D'D is symmetric pentadiagonal, so an O(n) banded LDL' solve
    over Python floats does the work: L has the two subdiagonals e and f.
    The matrix is I plus a positive semidefinite one, so every pivot d is at
    least 1 and no step divides by zero; an overflow from values near the
    float64 limit shows up as a non-finite trend.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 4:
        raise DataError(f"trend filter needs >= 4 points, got {y.size}")
    if not 0 < lam < np.inf:
        raise DataError(f"lambda must be positive and finite, got {lam}")
    if lam > MAX_LAMBDA:
        raise DataError(f"lambda={lam:g} is too large: above {MAX_LAMBDA:.3g} "
                        "the trend is lost to rounding")
    if not np.isfinite(y).all():
        raise DataError("hp_filter needs finite values")
    n = y.size
    diag = [1.0 + lam * c for c in (1, 5, *[6] * (n - 4), 5, 1)]
    sub = [lam * c for c in (-2, *[-4] * (n - 3), -2, 0)]  # A[i+1, i]; A[i+2, i] = lam
    e, f, w = [], [], []  # L's subdiagonals, and the solution of L D w = y
    d1 = d2 = e1 = f1 = f2 = z1 = z2 = 0.0  # pivot, e, f and L^-1 y at i - 1 and i - 2
    for a0, a1, yi in zip(diag, sub, y.tolist()):
        di = a0 - e1 * e1 * d1 - f2 * f2 * d2
        ei = (a1 - f1 * e1 * d1) / di
        zi = yi - e1 * z1 - f2 * z2
        e.append(ei)
        f.append(lam / di)
        w.append(zi / di)
        d1, d2, e1, f1, f2, z1, z2 = di, d1, ei, f[-1], f1, zi, z1
    trend = [0.0] * n
    x1 = x2 = 0.0
    for i in range(n - 1, -1, -1):
        x2, x1 = x1, w[i] - e[i] * x1 - f[i] * x2
        trend[i] = x1
    trend = np.array(trend)
    if not np.isfinite(trend).all():
        raise DataError(f"no finite trend for {n} points at lambda={lam:g}: "
                        "values too large for float64")
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
        raise DataError("trend_match_score needs at least one point")
    agree = np.sign(a) * np.sign(b) >= 0
    return float(agree.sum()) / a.size * 100.0


def align_pair(reference: TimeSeries, test: TimeSeries,
               grid_step_s: int = 60) -> tuple[TimeSeries, TimeSeries]:
    """Resample both series onto a shared regular grid restricted to their overlap."""
    if len(reference) < 2 or len(test) < 2:
        raise DataError("alignment needs >= 2 points per series")
    ref_g = bucket_resample(reference, grid_step_s)
    test_g = bucket_resample(test, grid_step_s)
    common, ri, ti = np.intersect1d(ref_g.epoch, test_g.epoch, assume_unique=True,
                                    return_indices=True)
    if common.size < 2:
        raise DataError("series do not share at least 2 grid buckets")
    return TimeSeries(common, ref_g.values[ri]), TimeSeries(common, test_g.values[ti])


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
    ref_g, test_g = align_pair(reference, test, grid_step_s)
    distance, path = dtw(ref_g.values, test_g.values)
    warped = warp_onto_reference(test_g.values, path, n_ref=len(ref_g))

    ref_ma = moving_average(ref_g, window).values
    test_ma = moving_average(test_g.with_values(warped), window).values

    mape_res = mape(ref_ma, test_ma)
    err = rmse(ref_ma, test_ma)
    _, cycle_ref = hp_filter(ref_ma, lam)
    _, cycle_test = hp_filter(test_ma, lam)
    trend_pct = trend_match_score(cycle_ref, cycle_test)

    lo = float(min(ref_g.values.min(), warped.min()))
    hi = float(max(ref_g.values.max(), warped.max()))
    return CalibrationReport(
        mape_pct=mape_res.pct,
        rmse=err,
        trend_match_pct=trend_pct,
        dtw_distance=distance,
        n_points=len(ref_g),
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
