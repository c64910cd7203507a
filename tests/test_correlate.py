import warnings

import numpy as np
import pytest

from aerotrace.chart import CHART_VERSION_COMMENT
from aerotrace.cli import EXIT_DATA, main
from aerotrace.correlate import emit_report, join_hourly, lagged_cross_correlation, pearson
from aerotrace.errors import DataError
from aerotrace.series import TimeSeries, format_csv_series

from conftest import make_series


def hourly(values):
    return make_series(values, step_s=3600)


@pytest.mark.parametrize("lag", [0, 1, 3, 6])
def test_planted_lag_is_the_best_lag(rng, lag):
    vehicles = rng.uniform(100.0, 900.0, size=48)
    pm25 = np.concatenate([rng.uniform(0.0, 1.0, size=lag), vehicles[:48 - lag] / 1000.0])
    pm25 += rng.normal(0.0, 0.01, size=48)
    scan = lagged_cross_correlation(join_hourly(hourly(vehicles), hourly(pm25)), max_lag=6)
    assert scan.best.lag == lag
    assert [c.lag for c in scan.correlations] == list(range(7))
    assert [c.n for c in scan.correlations] == [48 - k for k in range(7)]


@pytest.mark.parametrize("n", [3, 10, 200])
def test_pearson_agrees_with_corrcoef(rng, n):
    x, y = rng.normal(size=n), rng.normal(size=n)
    assert pearson(x.tolist(), y.tolist()) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_constant_input_rejected():
    with pytest.raises(DataError, match="^pearson is undefined for a constant input$"):
        pearson([1.0, 2.0, 3.0, 4.0], [5.0] * 4)


@pytest.mark.parametrize("big", [1e155, 1e200, -1e308])
def test_overflow_is_a_data_error(big):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^pearson r of 5 points overflows: values too large "
                                            "for float64$"):
            pearson([1.0, 2.0, big, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 5.0])


def test_large_values_short_of_overflow_still_correlate():
    assert pearson([1e150, 2e150, 3e150], [1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_an_hour_at_1e200_exits_data_error_and_writes_nothing(tmp_path, capsys):
    values = [float(v) for v in (5, 3, 8, 1, 9, 2, 7, 4, 6, 0)]
    (tmp_path / "veh.csv").write_text(format_csv_series(hourly(values[:4] + [1e200] + values[5:]),
                                                        "hour_start,value"))
    (tmp_path / "pm.csv").write_text(format_csv_series(hourly(values), "hour_start,value"))
    out = tmp_path / "corr"
    argv = ["correlate", "--vehicles", str(tmp_path / "veh.csv"),
            "--pm25", str(tmp_path / "pm.csv"), "--max-lag", "2", "--out-dir", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == ("aerotrace: data error: pearson r of 10 points overflows: "
                                       "values too large for float64\n")
    assert not out.exists()


def test_missing_hour_exits_data_error_and_writes_nothing(tmp_path, capsys):
    values = [float(v) for v in (5, 3, 8, 1, 9, 2, 7, 4, 6, 0)]
    full = hourly(values)
    gap = TimeSeries(np.delete(full.epoch, 4), np.delete(full.values, 4))
    (tmp_path / "veh.csv").write_text(format_csv_series(gap, "hour_start,value"))
    (tmp_path / "pm.csv").write_text(format_csv_series(full, "hour_start,value"))
    out = tmp_path / "corr"
    argv = ["correlate", "--vehicles", str(tmp_path / "veh.csv"),
            "--pm25", str(tmp_path / "pm.csv"), "--max-lag", "2", "--out-dir", str(out)]
    assert main(argv) == EXIT_DATA
    assert "joined hours must be consecutive" in capsys.readouterr().err
    assert not out.exists()


def test_chart_is_deterministic(tmp_path):
    joined = join_hourly(hourly(range(10)), hourly([5, 3, 8, 1, 9, 2, 7, 4, 6, 0]))
    lags = lagged_cross_correlation(joined, max_lag=2).correlations
    charts = []
    for name in ("a", "b"):
        emit_report(joined, lags, tmp_path / name)
        charts.append((tmp_path / name / "chart.svg").read_bytes())
    assert charts[0] == charts[1]
    assert charts[0].decode().splitlines()[1] == CHART_VERSION_COMMENT
