import math
import random
from datetime import timedelta

import numpy as np
import pytest

from aerotrace.errors import DataError
from aerotrace.pm_clean import (
    CleanConfig, DropCounts, clean_pipeline, filter_hardware_errors,
    min_max_normalize, remove_outliers_stddev, resample_hourly)
from aerotrace.series import TimeSeries

from conftest import E0, make_series, same_series


class TestHardwareFilter:
    def test_spikes_removed(self):
        s = make_series([5, 20001, 12])
        assert filter_hardware_errors(s, 20000).values.tolist() == [5.0, 12.0]

    def test_boundary_value_kept(self):
        s = make_series([20000, 19999])
        assert filter_hardware_errors(s, 20000).values.tolist() == [20000.0, 19999.0]

    def test_empty_passthrough(self):
        s = TimeSeries((), ())
        assert len(filter_hardware_errors(s, 20000)) == 0

    def test_order_preserved(self):
        s = make_series([1, 30000, 2, 30000, 3])
        assert filter_hardware_errors(s, 20000).values.tolist() == [1.0, 2.0, 3.0]


def brute_force_sigma_filter(values, k):
    mu = sum(values) / len(values)
    sigma = math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))
    return [v for v in values if abs(v - mu) <= k * sigma]


class TestOutlierRemoval:
    def test_constant_series_unchanged(self):
        s = make_series([7, 7, 7, 7])
        assert same_series(remove_outliers_stddev(s, 3.0), s)

    def test_too_few_points(self):
        with pytest.raises(DataError, match="^outlier removal needs at least 2 points$"):
            remove_outliers_stddev(make_series([1]), 3.0)

    def test_matches_brute_force_oracle(self):
        rnd = random.Random(42)
        for _ in range(200):
            n = rnd.randint(2, 60)
            values = [rnd.gauss(50, 10) for _ in range(n)]
            if rnd.random() < 0.5:
                values[rnd.randrange(n)] += rnd.uniform(50, 500)
            k = rnd.choice([1.0, 2.0, 3.0])
            got = remove_outliers_stddev(make_series(values), k).values
            assert list(got) == pytest.approx(brute_force_sigma_filter(values, k))

    def test_huge_k_keeps_everything(self):
        s = make_series([1, 100, -50, 3])
        assert same_series(remove_outliers_stddev(s, 1e18), s)

    def test_single_pass_not_iterative(self):
        # After removing the big spike, 30 would be an outlier of the remainder;
        # a single pass keeps it.
        values = [10.0] * 20 + [30.0, 1000.0]
        out = remove_outliers_stddev(make_series(values), 1.0)
        assert 30.0 in out.values
        assert 1000.0 not in out.values


class TestResampleHourly:
    def test_gap_interpolated(self):
        s = TimeSeries(E0 + np.array([0, 60, 2 * 3600, 2 * 3600 + 60]), [10.0, 10.0, 30.0, 30.0])
        out = resample_hourly(s)
        assert out.epoch.tolist() == [E0, E0 + 3600, E0 + 7200]
        assert out.values.tolist() == [10.0, 20.0, 30.0]

    def test_single_hour_mean(self):
        out = resample_hourly(make_series([1, 2, 3, 6], step_s=60))
        assert out.values.tolist() == [3.0]

    def test_hourly_linear_input_unchanged(self):
        s = make_series([10, 20, 30, 40], step_s=3600)
        assert same_series(resample_hourly(s), s)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="^cannot resample an empty series$"):
            resample_hourly(TimeSeries((), ()))

    def test_output_consecutive_hours(self):
        s = TimeSeries([E0 + 130, E0 + 5 * 3600], [5.0, 11.0])
        out = resample_hourly(s)
        assert set(np.diff(out.epoch).tolist()) == {3600}


class TestNormalize:
    def test_basic_mapping(self):
        out, params = min_max_normalize(make_series([5, 10, 15]))
        assert out.values.tolist() == [0.0, 0.5, 1.0]
        assert (params.x_min, params.x_max) == (5.0, 15.0)
        assert not params.constant

    def test_constant_series_flagged(self):
        out, params = min_max_normalize(make_series([4, 4, 4]))
        assert out.values.tolist() == [0.0, 0.0, 0.0]
        assert params.constant

    def test_bounds_attained(self):
        rnd = random.Random(9)
        values = [rnd.uniform(0, 500) for _ in range(30)]
        out, _ = min_max_normalize(make_series(values))
        assert min(out.values) == 0.0
        assert max(out.values) == 1.0
        assert all(0.0 <= v <= 1.0 for v in out.values)


class TestPipeline:
    def test_composition_law(self):
        rnd = random.Random(11)
        for _ in range(20):
            values = [rnd.uniform(0, 100) for _ in range(rnd.randint(5, 200))]
            values[rnd.randrange(len(values))] = 25000.0
            s = make_series(values, step_s=137)
            config = CleanConfig()
            direct = clean_pipeline(s, config)
            manual, params = min_max_normalize(resample_hourly(
                remove_outliers_stddev(filter_hardware_errors(s, config.hw_error_threshold),
                                       config.stddev_k)))
            assert same_series(direct.series, manual)
            assert direct.params == params

    def test_drop_counts(self):
        base = [10.0 + 0.01 * i for i in range(200)]
        base[7] = 20001.0       # hardware error
        base[90] = 10.0 + 200.0  # far beyond 3 sigma of the rest
        result = clean_pipeline(make_series(base))
        assert result.drops == DropCounts(hardware_errors=1, outliers=1)

    def test_clean_input_drops_nothing(self):
        result = clean_pipeline(make_series([10, 11, 12, 13, 12, 11]))
        assert result.drops == DropCounts(hardware_errors=0, outliers=0)

    def test_step_order_fixed(self):
        # Normalization parameters come from the hourly means, not raw points.
        s = make_series([0, 100, 50, 50], step_s=3600)
        result = clean_pipeline(s)
        assert result.params.x_min == 0.0
        assert result.params.x_max == 100.0
        s2 = make_series([0, 100, 50, 50], step_s=60)  # all within one hour
        result2 = clean_pipeline(s2)
        assert result2.params.constant
