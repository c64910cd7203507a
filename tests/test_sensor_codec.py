import random
from datetime import datetime, timezone

import pytest

from aerotrace.sensor_codec import (
    BadLength, BadStartBytes, ChecksumMismatch, EnvReading, FieldCountMismatch,
    NonUtcTimestamp, Pms7003Frame, SensorSample, UnparsableField,
    decode_pms7003_frame, encode_pms7003_frame, parse_csv_row, sample_to_csv_row)
from aerotrace.errors import DataError

UTC = timezone.utc

ZERO_FRAME_BYTES = bytes([0x42, 0x4D, 0x00, 0x1C]) + bytes(26) + bytes([0x00, 0xAB])


def zero_frame():
    return Pms7003Frame(*([0] * 13))


def random_frame(rnd):
    return Pms7003Frame(*[rnd.randint(0, 0xFFFF) for _ in range(13)])


class TestFrameCodec:
    def test_all_zero_frame_decodes(self):
        # checksum 0x42 + 0x4D + 0x00 + 0x1C = 0x00AB
        assert decode_pms7003_frame(ZERO_FRAME_BYTES) == zero_frame()

    def test_all_zero_frame_encodes(self):
        assert encode_pms7003_frame(zero_frame()) == ZERO_FRAME_BYTES

    def test_pm2_5_std_word_position(self):
        frame = Pms7003Frame(0, 20000, *([0] * 11))
        data = encode_pms7003_frame(frame)
        assert data[6:8] == bytes([0x4E, 0x20])  # hex(20000) = 0x4E20, word 2 at offset 6

    def test_round_trip_random_frames(self):
        rnd = random.Random(1234)
        for _ in range(1000):
            frame = random_frame(rnd)
            assert decode_pms7003_frame(encode_pms7003_frame(frame)) == frame

    def test_byte_round_trip(self):
        rnd = random.Random(99)
        for _ in range(100):
            data = encode_pms7003_frame(random_frame(rnd))
            assert encode_pms7003_frame(decode_pms7003_frame(data)) == data

    def test_payload_byte_flip_fails_checksum(self):
        rnd = random.Random(7)
        data = bytearray(encode_pms7003_frame(random_frame(rnd)))
        for offset in range(4, 30):
            for bit in range(8):
                corrupt = bytearray(data)
                corrupt[offset] ^= 1 << bit
                with pytest.raises(ChecksumMismatch):
                    decode_pms7003_frame(bytes(corrupt))

    def test_bad_start_bytes(self):
        data = bytearray(ZERO_FRAME_BYTES)
        data[0] = 0x41
        with pytest.raises(BadStartBytes) as exc:
            decode_pms7003_frame(bytes(data))
        assert exc.value.offset == 0 and exc.value.value == 0x41

    def test_bad_length(self):
        data = bytearray(ZERO_FRAME_BYTES)
        data[3] = 0x1D
        data[31] = 0xAC  # keep the checksum consistent so only the length is wrong
        with pytest.raises(BadLength):
            decode_pms7003_frame(bytes(data))

    def test_wrong_size_rejected(self):
        with pytest.raises(DataError):
            decode_pms7003_frame(ZERO_FRAME_BYTES[:31])

    def test_field_range_validated(self):
        with pytest.raises(DataError):
            Pms7003Frame(70000, *([0] * 12))


def sample_16h():
    return SensorSample(
        timestamp=datetime(2022, 7, 1, 16, 0, 0, tzinfo=UTC),
        pm1_0=5, pm2_5=12, pm10=15,
        env=EnvReading(temp_c=27.0, rh_pct=65.5, pressure_hpa=1008.25))


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
                env=EnvReading(temp_c=round(rnd.uniform(-10, 45), 2),
                               rh_pct=round(rnd.uniform(0, 100), 2),
                               pressure_hpa=round(rnd.uniform(900, 1100), 2)))
            assert parse_csv_row(sample_to_csv_row(sample)) == sample

    def test_boundary_sample_round_trips(self):
        sample = SensorSample(
            timestamp=datetime(2022, 7, 1, tzinfo=UTC), pm1_0=0, pm2_5=0, pm10=0,
            env=EnvReading(temp_c=0.0, rh_pct=0.0, pressure_hpa=500.0))
        assert parse_csv_row(sample_to_csv_row(sample)) == sample

    def test_field_count(self):
        with pytest.raises(FieldCountMismatch):
            parse_csv_row("2022-07-01T16:00:00Z,5,12,15,27.00,65.50")

    def test_unparsable_timestamp(self):
        with pytest.raises(UnparsableField) as exc:
            parse_csv_row("not-a-date,5,12,15,27.00,65.50,1008.25")
        assert exc.value.index == 0

    def test_non_utc_timestamp(self):
        with pytest.raises(NonUtcTimestamp):
            parse_csv_row("2022-07-01T16:00:00+07:00,5,12,15,27.00,65.50,1008.25")

    def test_unparsable_pm(self):
        with pytest.raises(UnparsableField) as exc:
            parse_csv_row("2022-07-01T16:00:00Z,5,twelve,15,27.00,65.50,1008.25")
        assert exc.value.index == 2

    @pytest.mark.parametrize("stamp", ["2022-07-01T16:00:00.500+00:00", "2022-07-01T16:00:00.500Z"])
    def test_subsecond_timestamp_unparsable(self, stamp):
        with pytest.raises(UnparsableField) as exc:
            parse_csv_row(f"{stamp},5,12,15,27.00,65.50,1008.25")
        assert exc.value.index == 0

    def test_out_of_range_humidity(self):
        with pytest.raises(UnparsableField) as exc:
            parse_csv_row("2022-07-01T16:00:00Z,5,12,15,27.00,165.50,1008.25")
        assert exc.value.index == 5


class TestDomainTypes:
    def test_negative_pm_rejected(self):
        with pytest.raises(DataError):
            SensorSample(timestamp=datetime(2022, 7, 1, tzinfo=UTC),
                         pm1_0=-1, pm2_5=0, pm10=0,
                         env=EnvReading(temp_c=0, rh_pct=0, pressure_hpa=1000))

    def test_subsecond_timestamp_rejected(self):
        with pytest.raises(DataError):
            SensorSample(timestamp=datetime(2022, 7, 1, microsecond=5, tzinfo=UTC),
                         pm1_0=0, pm2_5=0, pm10=0,
                         env=EnvReading(temp_c=0, rh_pct=0, pressure_hpa=1000))
