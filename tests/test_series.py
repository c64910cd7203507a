import math
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotrace.errors import DataError
from aerotrace.series import (
    MAX_BUCKETS, TimeSeries, bucket_resample, floor_to, format_csv_series, format_utc, parse_utc,
    read_csv_series)

from conftest import E0, T0, at, make_series, same_series

UTC = timezone.utc


def bucket_resample_oracle(series, bucket_s):
    """The per-point loop over datetimes that ``bucket_resample`` replaced."""
    points = list(series)
    idx = [math.floor(t.timestamp() / bucket_s) for t, _ in points]
    b0, b1 = idx[0], idx[-1]
    n = b1 - b0 + 1
    sums = np.zeros(n)
    counts = np.zeros(n)
    for i, (_, v) in zip(idx, points):
        sums[i - b0] += v
        counts[i - b0] += 1
    filled = np.flatnonzero(counts > 0)
    means = sums[filled] / counts[filled]
    grid = np.interp(np.arange(n), filled, means)
    times = [datetime.fromtimestamp((b0 + k) * bucket_s, tz=UTC) for k in range(n)]
    return times, grid


class TestTimeSeries:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(DataError, match=r"^timestamps must strictly increase: "
                           r"2022-07-01 16:00:10\+00:00 then 2022-07-01 16:00:10\+00:00$"):
            TimeSeries([E0, E0 + 10, E0 + 10], [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match=r"^non-finite value inf$"):
            TimeSeries([E0, E0 + 1], [1.0, float("inf")])

    @pytest.mark.parametrize("epoch, values", [
        ([E0, E0 + 1], [1.0]),
        ([[E0]], [[1.0]]),
    ])
    def test_shape_checked(self, epoch, values):
        with pytest.raises(DataError, match="1-D arrays of equal length"):
            TimeSeries(epoch, values)

    def test_arrays_are_read_only_copies(self):
        epoch, values = np.array([E0, E0 + 60]), np.array([1.0, 2.0])
        s = TimeSeries(epoch, values)
        epoch[0], values[0] = 0, 9.0
        assert s.epoch.tolist() == [E0, E0 + 60] and s.values.tolist() == [1.0, 2.0]
        assert (s.epoch.dtype, s.values.dtype) == (np.int64, np.float64)
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_iterates_as_datetimes_and_floats(self):
        pairs = list(TimeSeries([E0, E0 + 60], [1.5, 2.0]))
        assert pairs == [(T0, 1.5), (at(60), 2.0)]
        assert all(type(v) is float and t.tzinfo is UTC for t, v in pairs)


class TestFloorTo:
    def test_hour_floor(self):
        assert floor_to(at(59 * 60 + 59), 3600) == T0

    def test_already_aligned(self):
        assert floor_to(T0, 300) == T0


class TestBucketResample:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="^cannot resample an empty series$"):
            bucket_resample(TimeSeries((), ()), 3600)

    def test_single_bucket_mean(self):
        s = make_series([10, 20, 30], step_s=60)
        out = bucket_resample(s, 3600)
        assert len(out) == 1
        assert out.values.tolist() == [20.0]
        assert out.epoch.tolist() == [E0]

    def test_interior_gap_interpolated(self):
        s = TimeSeries([E0, E0 + 2 * 3600], [10.0, 30.0])
        out = bucket_resample(s, 3600)
        assert out.values.tolist() == [10.0, 20.0, 30.0]
        assert out.epoch.tolist() == [E0, E0 + 3600, E0 + 7200]

    def test_a_grid_over_the_limit_is_refused_before_it_is_built(self):
        s = TimeSeries([-62135596800, 253402300799], [1.0, 2.0])  # years 0001 and 9999
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=(
                    r"^the series spans 87649416 buckets of 3600 s, from 0001-01-01T00:00:00Z "
                    r"to 9999-12-31T23:00:00Z, over the limit of 100000$")):
                bucket_resample(s, 3600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_grid_at_the_limit_is_built(self):
        last = E0 + (MAX_BUCKETS - 1) * 60
        assert len(bucket_resample(TimeSeries([E0, last], [1.0, 2.0]), 60)) == MAX_BUCKETS
        with pytest.raises(DataError, match=f"spans {MAX_BUCKETS + 1} buckets"):
            bucket_resample(TimeSeries([E0, last + 60], [1.0, 2.0]), 60)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 20_000), min_size=1, max_size=200, unique=True),
           st.lists(st.floats(-1e6, 1e6), min_size=200, max_size=200),
           st.sampled_from([1, 7, 60, 900, 3600]))
    def test_matches_per_point_loop(self, offsets, values, bucket_s):
        s = TimeSeries(E0 + np.array(sorted(offsets)), values[:len(offsets)])
        out = bucket_resample(s, bucket_s)
        times, grid = bucket_resample_oracle(s, bucket_s)
        assert [t for t, _ in out] == times
        assert out.values.tobytes() == grid.tobytes()


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        s = make_series([1.5, 2.5, 3.5], step_s=3600)
        path = tmp_path / "series.csv"
        path.write_text(format_csv_series(s, "hour_start,value"))
        assert path.read_text() == ("hour_start,value\n2022-07-01T16:00:00Z,1.500000\n"
                                    "2022-07-01T17:00:00Z,2.500000\n2022-07-01T18:00:00Z,3.500000\n")
        assert same_series(read_csv_series(path), s)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("hour_start,value\n2022-07-01T16:00:00Z\n")
        with pytest.raises(DataError):
            read_csv_series(path)

    @pytest.mark.parametrize("value_col, need", [(2, 3), (-3, 3), (-4, 4)])
    def test_a_column_beyond_the_row_is_a_data_error(self, tmp_path, value_col, need):
        path = tmp_path / "narrow.csv"
        path.write_text("t,v\n2022-07-01T16:00:00Z,1.0\n")
        with pytest.raises(DataError) as exc:
            read_csv_series(path, value_col=value_col)
        assert str(exc.value) == f"{path}:2: expected at least {need} columns"

    def test_error_names_the_physical_line(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("hour_start,value\n\n\n2022-07-01T16:00:00Z,1.0\n2022-07-01T17:00:00Z,x\n")
        with pytest.raises(DataError, match=r"gaps\.csv:5: "):
            read_csv_series(path)

    def test_parse_utc_strict(self):
        assert parse_utc("2022-07-01T16:00:00Z") == T0
        with pytest.raises(ValueError):
            parse_utc("2022-07-01 16:00:00")

    @given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
                        timezones=st.just(timezone.utc)).map(lambda ts: ts.replace(microsecond=0)))
    def test_format_utc_round_trip(self, ts):
        assert parse_utc(format_utc(ts)) == ts
