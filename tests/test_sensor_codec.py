import random
import re
from datetime import datetime, timezone

import pytest

from aerotrace.sensor_codec import (
    SensorSample, parse_csv_row, sample_to_csv_row)
from aerotrace.errors import DataError

UTC = timezone.utc

def sample_16h():
    return SensorSample(
        timestamp=datetime(2022, 7, 1, 16, 0, 0, tzinfo=UTC),
        pm1_0=5, pm2_5=12, pm10=15,
        temp_c=27.0, rh_pct=65.5, pressure_hpa=1008.25)


class TestCsvRows:
    def test_example_row(self):
        row = sample_to_csv_row(sample_16h())
        assert row == "2022-07-01T16:00:00Z,5,12,15,27.00,65.50,1008.25"

    def test_parse_example_row(self):
        assert parse_csv_row("2022-07-01T16:00:00Z,5,12,15,27.00,65.50,1008.25") == sample_16h()

    def test_round_trip_random(self):
        rnd = random.Random(5)
        for _ in range(200):
            sample = SensorSample(
                timestamp=datetime(2022, 7, rnd.randint(1, 28), rnd.randint(0, 23),
                                   rnd.randint(0, 59), rnd.randint(0, 59), tzinfo=UTC),
                pm1_0=rnd.randint(0, 500), pm2_5=rnd.randint(0, 500),
                pm10=rnd.randint(0, 500),
                temp_c=round(rnd.uniform(-10, 45), 2),
                rh_pct=round(rnd.uniform(0, 100), 2),
                pressure_hpa=round(rnd.uniform(900, 1100), 2))
            assert parse_csv_row(sample_to_csv_row(sample)) == sample

    def test_boundary_sample_round_trips(self):
        sample = SensorSample(
            timestamp=datetime(2022, 7, 1, tzinfo=UTC), pm1_0=0, pm2_5=0, pm10=0,
            temp_c=0.0, rh_pct=0.0, pressure_hpa=500.0)
        assert parse_csv_row(sample_to_csv_row(sample)) == sample

    def test_field_count(self):
        with pytest.raises(DataError, match=r"^expected 7 fields, got 6$"):
            parse_csv_row("2022-07-01T16:00:00Z,5,12,15,27.00,65.50")

    def test_unparsable_timestamp(self):
        with pytest.raises(DataError, match=r"^field 0 unparsable: 'not-a-date'$"):
            parse_csv_row("not-a-date,5,12,15,27.00,65.50,1008.25")

    def test_non_utc_timestamp(self):
        with pytest.raises(DataError,
                           match=r"^timestamp is not UTC: '2022-07-01T16:00:00\+07:00'$"):
            parse_csv_row("2022-07-01T16:00:00+07:00,5,12,15,27.00,65.50,1008.25")

    def test_unparsable_pm(self):
        with pytest.raises(DataError, match=r"^field 2 unparsable: 'twelve'$"):
            parse_csv_row("2022-07-01T16:00:00Z,5,twelve,15,27.00,65.50,1008.25")

    @pytest.mark.parametrize("stamp", ["2022-07-01T16:00:00.500+00:00", "2022-07-01T16:00:00.500Z"])
    def test_subsecond_timestamp_unparsable(self, stamp):
        with pytest.raises(DataError, match=f"^{re.escape(f'field 0 unparsable: {stamp!r}')}$"):
            parse_csv_row(f"{stamp},5,12,15,27.00,65.50,1008.25")

    def test_out_of_range_humidity(self):
        with pytest.raises(DataError, match=r"^field 5 unparsable: '165\.50'$"):
            parse_csv_row("2022-07-01T16:00:00Z,5,12,15,27.00,165.50,1008.25")

    @pytest.mark.parametrize("row, field", [
        ("2022-07-01T16:00:00Z,-1,12,15,27.00,165.50,1008.25", "1 unparsable: '-1'"),
        ("2022-07-01T16:00:00Z,5,-2,15,x,65.50,-1.00", "2 unparsable: '-2'"),
        ("2022-07-01T16:00:00Z,5,12,15,27.00,nan,0.00", "5 unparsable: 'nan'"),
    ])
    def test_two_bad_fields_name_the_leftmost(self, row, field):
        with pytest.raises(DataError, match=f"^{re.escape(f'field {field}')}$"):
            parse_csv_row(row)


class TestDomainTypes:
    def test_negative_pm_rejected(self):
        with pytest.raises(DataError):
            SensorSample(timestamp=datetime(2022, 7, 1, tzinfo=UTC),
                         pm1_0=-1, pm2_5=0, pm10=0,
                         temp_c=0, rh_pct=0, pressure_hpa=1000)

    @pytest.mark.parametrize("field, value", [
        ("rh_pct", 100.01), ("rh_pct", -0.01), ("rh_pct", float("nan")),
        ("pressure_hpa", 0.0), ("pressure_hpa", -float("inf")), ("pm2_5", 1.0)])
    def test_out_of_range_field_rejected(self, field, value):
        fields = dict(pm1_0=0, pm2_5=0, pm10=0, temp_c=0.0, rh_pct=0.0, pressure_hpa=1000.0)
        with pytest.raises(DataError, match=f"^{field}="):
            SensorSample(timestamp=datetime(2022, 7, 1, tzinfo=UTC), **{**fields, field: value})

    def test_nan_pressure_and_temperature_are_valid(self):
        sample = SensorSample(timestamp=datetime(2022, 7, 1, tzinfo=UTC), pm1_0=0, pm2_5=0,
                              pm10=0, temp_c=float("nan"), rh_pct=0.0, pressure_hpa=float("nan"))
        assert parse_csv_row(sample_to_csv_row(sample)).timestamp == sample.timestamp

    def test_subsecond_timestamp_rejected(self):
        with pytest.raises(DataError):
            SensorSample(timestamp=datetime(2022, 7, 1, microsecond=5, tzinfo=UTC),
                         pm1_0=0, pm2_5=0, pm10=0,
                         temp_c=0, rh_pct=0, pressure_hpa=1000)
