import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotrace.errors import DataError, EmptyInput
from aerotrace.series import TimeSeries, bucket_resample, floor_to, parse_utc, read_csv_series, write_csv_series

from conftest import T0, at, make_series

UTC = timezone.utc


def bucket_resample_oracle(series, bucket_s):
    """The per-point loop ``bucket_resample`` replaced with ``np.bincount``."""
    idx = [math.floor(t.timestamp() / bucket_s) for t in series.times]
    b0, b1 = idx[0], idx[-1]
    n = b1 - b0 + 1
    sums = np.zeros(n)
    counts = np.zeros(n)
    for i, v in zip(idx, series.values):
        sums[i - b0] += v
        counts[i - b0] += 1
    filled = np.flatnonzero(counts > 0)
    means = sums[filled] / counts[filled]
    grid = np.interp(np.arange(n), filled, means)
    times = tuple(datetime.fromtimestamp((b0 + k) * bucket_s, tz=UTC) for k in range(n))
    return TimeSeries(times, tuple(float(x) for x in grid))


class TestTimeSeries:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(DataError):
            TimeSeries((T0, T0), (1.0, 2.0))

    def test_naive_timestamps_rejected(self):
        with pytest.raises(DataError):
            TimeSeries((datetime(2022, 7, 1),), (1.0,))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            TimeSeries((T0,), (float("nan"),))

    def test_normalizes_to_utc(self):
        t = datetime(2022, 7, 1, 23, 0, 0, tzinfo=timezone(timedelta(hours=7)))
        s = TimeSeries((t,), (1.0,))
        assert s.times[0] == datetime(2022, 7, 1, 16, 0, 0, tzinfo=UTC)


class TestFloorTo:
    def test_hour_floor(self):
        assert floor_to(at(59 * 60 + 59), 3600) == T0

    def test_already_aligned(self):
        assert floor_to(T0, 300) == T0


class TestBucketResample:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            bucket_resample(TimeSeries((), ()), 3600)

    def test_single_bucket_mean(self):
        s = make_series([10, 20, 30], step_s=60)
        out = bucket_resample(s, 3600)
        assert len(out) == 1
        assert out.values[0] == 20.0
        assert out.times[0] == T0

    def test_interior_gap_interpolated(self):
        s = TimeSeries.from_points([(at(0), 10.0), (at(2 * 3600), 30.0)])
        out = bucket_resample(s, 3600)
        assert out.values == (10.0, 20.0, 30.0)
        assert out.times == (T0, at(3600), at(7200))

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 20_000), min_size=1, max_size=200, unique=True),
           st.lists(st.floats(-1e6, 1e6), min_size=200, max_size=200),
           st.sampled_from([1, 7, 60, 900, 3600]))
    def test_matches_per_point_loop(self, offsets, values, bucket_s):
        s = TimeSeries.from_points(
            (at(t), v) for t, v in zip(sorted(offsets), values))
        out, want = bucket_resample(s, bucket_s), bucket_resample_oracle(s, bucket_s)
        assert out.times == want.times
        assert np.array(out.values).tobytes() == np.array(want.values).tobytes()


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        s = make_series([1.5, 2.5, 3.5], step_s=3600)
        path = tmp_path / "series.csv"
        write_csv_series(path, s)
        back = read_csv_series(path)
        assert back == s

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("hour_start,value\n2022-07-01T16:00:00Z\n")
        with pytest.raises(DataError):
            read_csv_series(path)

    def test_parse_utc_strict(self):
        assert parse_utc("2022-07-01T16:00:00Z") == T0
        with pytest.raises(ValueError):
            parse_utc("2022-07-01 16:00:00")
