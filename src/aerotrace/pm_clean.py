"""Four-step PM2.5 preprocessing: hardware-error filter, sigma outlier removal,
hourly resampling with gap interpolation, min-max normalization."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import HOUR_S, TimeSeries, bucket_resample


@dataclass(frozen=True)
class CleanConfig:
    hw_error_threshold: float = 20000.0
    stddev_k: float = 3.0

    def __post_init__(self) -> None:
        if not self.hw_error_threshold > 0:
            raise DataError(f"hw_error_threshold must be positive, got {self.hw_error_threshold}")
        if not self.stddev_k > 0:
            raise DataError(f"stddev_k must be positive, got {self.stddev_k}")


@dataclass(frozen=True)
class NormalizationParams:
    x_min: float
    x_max: float
    constant: bool = False


@dataclass(frozen=True)
class DropCounts:
    hardware_errors: int
    outliers: int


@dataclass(frozen=True)
class CleanResult:
    series: TimeSeries
    params: NormalizationParams
    drops: DropCounts


def filter_hardware_errors(series: TimeSeries, threshold: float = 20000.0) -> TimeSeries:
    """Drop readings strictly larger than the sensor's hardware error threshold."""
    keep = series.values <= threshold
    return TimeSeries(series.epoch[keep], series.values[keep])


def remove_outliers_stddev(series: TimeSeries, k: float = 3.0) -> TimeSeries:
    """Single-pass sigma filter: drop points with |x - mean| > k * population stddev."""
    if len(series) < 2:
        raise DataError("outlier removal needs at least 2 points")
    vals = series.values
    mu = float(vals.mean())
    sigma = float(vals.std())  # population stddev, not iterated
    keep = np.abs(vals - mu) <= k * sigma
    return TimeSeries(series.epoch[keep], vals[keep])


def resample_hourly(series: TimeSeries) -> TimeSeries:
    """Bucket by UTC wall-clock hour: mean per hour, interior gaps interpolated."""
    return bucket_resample(series, HOUR_S)


def min_max_normalize(series: TimeSeries) -> tuple[TimeSeries, NormalizationParams]:
    """Map values through (x - min) / (max - min) onto [0, 1].

    A constant series has no spread to map; it becomes all zeros with the
    ``constant`` flag set so downstream consumers can see the degeneracy.
    """
    if len(series) == 0:
        raise DataError("cannot normalize an empty series")
    vals = series.values
    x_min, x_max = float(vals.min()), float(vals.max())
    if x_min == x_max:
        params = NormalizationParams(x_min=x_min, x_max=x_max, constant=True)
        return series.with_values(np.zeros(len(series))), params
    params = NormalizationParams(x_min=x_min, x_max=x_max)
    return series.with_values((vals - x_min) / (x_max - x_min)), params


def clean_pipeline(series: TimeSeries, config: CleanConfig = CleanConfig()) -> CleanResult:
    """Run the four cleaning steps in order, reporting how much each dropped."""
    step1 = filter_hardware_errors(series, config.hw_error_threshold)
    step2 = remove_outliers_stddev(step1, config.stddev_k)
    step3 = resample_hourly(step2)
    step4, params = min_max_normalize(step3)
    drops = DropCounts(
        hardware_errors=len(series) - len(step1),
        outliers=len(step1) - len(step2),
    )
    return CleanResult(series=step4, params=params, drops=drops)
