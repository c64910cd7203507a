"""The columnar CSV readers against the row-by-row readers they replaced.

``read_csv_series_oracle`` and ``read_sensor_series_oracle`` are the readers
as they were before the columnar parse: one ``datetime`` and one float per row,
checked by the tuple-based ``TimeSeries``. On every file both sides must give
the same epoch and value bytes or raise the same ``DataError`` with the same
message.
"""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aerotrace import cli, series
from aerotrace.errors import DataError
from aerotrace.sensor_codec import (
    CSV_FIELDS, SensorSample, parse_csv_row, sample_to_csv_row)
from aerotrace.series import as_utc, parse_utc, read_csv_series, utc_datetime

from conftest import E0, at

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
CORRUPT_SETTINGS = settings(SETTINGS, max_examples=25)
EPOCH_YEAR_1 = -62135596800
EPOCH_YEAR_9999 = 253402300799


def oracle_series(points):
    """The checks of the tuple-based TimeSeries; returns epoch and value arrays."""
    times = [as_utc(t) for t, _ in points]
    values = [float(v) for _, v in points]
    for a, b in zip(times, times[1:]):
        if b <= a:
            raise DataError(f"timestamps must strictly increase: {a} then {b}")
    for v in values:
        if not math.isfinite(v):
            raise DataError(f"non-finite value {v!r}")
    return np.array([int(t.timestamp()) for t in times], dtype=np.int64), np.array(values)


def numbered_rows(path):
    lines = Path(path).read_text().splitlines()
    return [(n, line) for n, line in enumerate(lines, start=1) if line.strip()]


def read_csv_series_oracle(path, value_col=1):
    rows = numbered_rows(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    points = []
    for lineno, line in rows[1:]:
        fields = line.split(",")
        need = value_col + 1 if value_col >= 0 else -value_col
        if len(fields) < need:
            raise DataError(f"{path}:{lineno}: expected at least {need} columns")
        try:
            t = parse_utc(fields[0])
            v = float(fields[value_col])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        points.append((t, v))
    if not points:
        raise DataError(f"{path}: no data rows")
    return oracle_series(points)


def read_sensor_series_oracle(path, column):
    points = []
    for lineno, line in numbered_rows(path):
        try:
            sample = parse_csv_row(line)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        points.append((sample.timestamp, float(getattr(sample, column))))
    if not points:
        raise DataError(f"{path}: no rows")
    return oracle_series(points)


def outcome(read, *args):
    """("ok", epoch bytes, value bytes) or (error class, message)."""
    try:
        result = read(*args)
    except DataError as exc:
        return type(exc), str(exc)
    epoch, values = (result.epoch, result.values) if hasattr(result, "epoch") else result
    assert epoch.dtype == np.int64 and values.dtype == np.float64
    return "ok", epoch.tobytes(), values.tobytes()


# -- file generators ----------------------------------------------------------

def stamp_text(epoch_s, form):
    t = utc_datetime(epoch_s)
    if form == "z":
        return t.isoformat().replace("+00:00", "Z")
    if form == "offset":
        return t.isoformat()
    # Unpadded fields, which strptime takes and the columnar parse leaves to the row parser.
    return f"{t.year:04d}-{t.month}-{t.day}T{t.hour}:{t.minute}:{t.second}Z"


epochs = st.one_of(
    st.lists(st.integers(1, 3600), min_size=1, max_size=25).map(
        lambda steps: (E0 + np.cumsum(steps)).tolist()),
    st.lists(st.integers(EPOCH_YEAR_1, EPOCH_YEAR_9999), min_size=1, max_size=25,
             unique=True).map(sorted))
floats = st.floats(-1e6, 1e6).flatmap(lambda x: st.sampled_from(
    [f"{x:.2f}", repr(x), f" {x:.3f} ", f"{x:.3e}"]))


@st.composite
def layouts(draw, n):
    """Per-row timestamp forms, surrounding whitespace and the blank lines around rows."""
    plain = draw(st.booleans())
    forms = ["z"] * n if plain else draw(
        st.lists(st.sampled_from(["z", "offset", "unpadded"]), min_size=n, max_size=n))
    pads = [("", "")] * n if plain else draw(st.lists(
        st.sampled_from([("", ""), (" ", ""), ("", "  "), ("\t", " ")]), min_size=n, max_size=n))
    blanks = draw(st.lists(st.sampled_from([[], [""], ["  ", ""]]), min_size=n + 1,
                           max_size=n + 1))
    return forms, pads, blanks


def join_lines(rows, pads, blanks):
    out = []
    for row, (left, right), gap in zip(rows, pads, blanks):
        out += gap + [left + row + right]
    return "\n".join(out + blanks[-1]) + "\n"


@st.composite
def sensor_rows(draw):
    stamps = draw(epochs)
    n = len(stamps)
    forms, pads, blanks = draw(layouts(n))
    rows = []
    for epoch_s, form in zip(stamps, forms):
        pm = draw(st.lists(st.integers(0, 70000), min_size=3, max_size=3))
        temp = draw(floats)
        rh = f"{draw(st.floats(0, 100)):.2f}"
        pressure = draw(st.one_of(st.floats(0.01, 2000).map("{:.2f}".format), st.just("nan")))
        rows.append([stamp_text(epoch_s, form), *map(str, pm), temp, rh, pressure])
    return rows, pads, blanks


CORRUPTIONS = {
    "fields": lambda row: row[:-1],
    "extra_field": lambda row: row + ["1"],
    "stamp": lambda row: ["not-a-date"] + row[1:],
    "month": lambda row: ["2022-13-01T00:00:00Z"] + row[1:],
    "year_0": lambda row: ["0000-01-01T00:00:00Z"] + row[1:],
    "sub_second": lambda row: [row[0][:19] + ".500+00:00"] + row[1:],
    "non_utc": lambda row: [row[0][:19] + "+07:00"] + row[1:],
    "negative_pm": lambda row: row[:2] + ["-3"] + row[3:],
    "rh_high": lambda row: row[:5] + ["165.50"] + row[6:],
    "rh_nan": lambda row: row[:5] + ["nan"] + row[6:],
    "pressure": lambda row: row[:6] + ["0"],
    "number": lambda row: row[:3] + ["twelve"] + row[4:],
}


def edge_cases(text, field):
    """Variants of the plain file ``text`` that its byte parse must decline or
    read as the row parsers do. ``field`` is a ``,number`` in its last row."""
    head, _, tail = text.rpartition(field)
    first_end = text.index("\n")
    t = head.rindex("T")
    return {
        "stamp_space": head[:t] + " " + head[t + 1:] + field + tail,
        "crlf": text.replace("\n", "\r\n"),
        "lone_cr": text.replace("\n", "\r", 1),
        "bom": "\ufeff" + text,
        "nul": head + field + "\x00" + tail,
        "tab": head + field + "\t" + tail,
        "arabic_digit": head + ",\u0663" + tail,
        # str.splitlines breaks a line at each of these.
        "form_feed": text[:first_end] + "\x0c" + text[first_end + 1:],
        "line_separator": text[:first_end] + "\u2028" + text[first_end + 1:],
        "file_separator": head + ",\x1c" + field[1:] + tail,
        "no_trailing_newline": text[:-1],
        "space_line_first": "  \n" + text,
        "space_line_for_first": "  " + text[first_end:],
        "underscore": head + ",1_0" + tail,
        "plus": head + ",+5" + tail,
        "exponent": head + ",1e3" + tail,
    }


PLAIN_SENSOR = ("2022-07-01T16:00:00Z,5,12,15,27.00,65.50,1008.25\n"
                "2022-07-01T16:00:10Z,6,13,16,27.10,65.40,1008.20\n")
PLAIN_VALUES = "t,v\n2022-07-01T16:00:00Z,1.5\n2022-07-01T17:00:00Z,2.5\n"


@pytest.fixture
def csv_path(tmp_path):
    return tmp_path / "input.csv"


class TestSensorReader:
    @SETTINGS
    @given(sensor_rows(), st.sampled_from(CSV_FIELDS))
    def test_valid_files_match_the_row_reader(self, csv_path, rows_layout, column):
        rows, pads, blanks = rows_layout
        csv_path.write_text(join_lines([",".join(r) for r in rows], pads, blanks))
        want = outcome(read_sensor_series_oracle, csv_path, column)
        assert outcome(cli._read_sensor_series, csv_path, column) == want
        assert want[0] == "ok" or column == "pressure_hpa"

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @CORRUPT_SETTINGS
    @given(sensor_rows(), st.sampled_from(CSV_FIELDS), st.data())
    def test_corrupted_files_raise_the_same_error(self, csv_path, corruption, rows_layout,
                                                  column, data):
        rows, pads, blanks = rows_layout
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = CORRUPTIONS[corruption](rows[i])
        csv_path.write_text(join_lines([",".join(r) for r in rows], pads, blanks))
        want = outcome(read_sensor_series_oracle, csv_path, column)
        assert want[0] is DataError
        assert outcome(cli._read_sensor_series, csv_path, column) == want

    @SETTINGS
    @given(sensor_rows(), st.data())
    def test_time_going_back_raises_the_same_error(self, csv_path, rows_layout, data):
        rows, pads, blanks = rows_layout
        rows.append(list(rows[data.draw(st.integers(0, len(rows) - 1))]))
        csv_path.write_text(join_lines([",".join(r) for r in rows], pads + [("", "")],
                                       blanks + [[]]))
        want = outcome(read_sensor_series_oracle, csv_path, "pm2_5")
        assert want[0] is DataError and "strictly increase" in want[1]
        assert outcome(cli._read_sensor_series, csv_path, "pm2_5") == want

    def test_fields_do_not_shift_across_rows(self, csv_path):
        csv_path.write_text("2022-07-01T16:00:00Z,5,12,15,27.00,65.50,1008.25,"
                            "2022-07-01T16:00:10Z\n5,12,15,27.00,65.50,1008.25\n")
        want = outcome(read_sensor_series_oracle, csv_path, "pm2_5")
        assert want[0] is DataError
        assert outcome(cli._read_sensor_series, csv_path, "pm2_5") == want

    def test_plain_file_skips_the_row_parser(self, csv_path, monkeypatch):
        csv_path.write_text("2022-07-01T16:00:00Z,5,12,15,27.00,65.50,1008.25\n\n"
                            "2022-07-01T16:00:10Z,6,13,16,27.10,65.40,1008.20\n")

        def no_rows(line):
            raise AssertionError(line)

        monkeypatch.setattr(cli, "parse_csv_row", no_rows)
        got = cli._read_sensor_series(csv_path, "pm2_5")
        assert got.epoch.tolist() == [E0, E0 + 10]
        assert got.values.tolist() == [12.0, 13.0]

    def test_empty_file(self, csv_path):
        csv_path.write_text("\n  \n")
        want = outcome(read_sensor_series_oracle, csv_path, "pm2_5")
        assert outcome(cli._read_sensor_series, csv_path, "pm2_5") == want

    @pytest.mark.parametrize("column", ["pm2_5", "temp_c"])
    @pytest.mark.parametrize("case", sorted(edge_cases(PLAIN_SENSOR, ",13")))
    def test_edge_cases_match_the_row_reader(self, csv_path, case, column):
        csv_path.write_bytes(edge_cases(PLAIN_SENSOR, ",13")[case].encode())
        want = outcome(read_sensor_series_oracle, csv_path, column)
        assert outcome(cli._read_sensor_series, csv_path, column) == want

    def test_pm_too_large_for_a_float(self, csv_path):
        csv_path.write_text(PLAIN_SENSOR.replace(",13,", f",{'9' * 400},"))
        with pytest.raises(DataError, match=":2: pm2_5 too large for a float$"):
            cli._read_sensor_series(csv_path, "pm2_5")

    def test_crlf_copy_skips_the_row_parser(self, csv_path, monkeypatch):
        csv_path.write_bytes(PLAIN_SENSOR.encode())
        want = outcome(cli._read_sensor_series, csv_path, "rh_pct")

        def no_rows(line):
            raise AssertionError(line)

        monkeypatch.setattr(cli, "parse_csv_row", no_rows)
        csv_path.write_bytes(PLAIN_SENSOR.replace("\n", "\r\n").encode())
        assert outcome(cli._read_sensor_series, csv_path, "rh_pct") == want


# Field values at the edges of the form the node writes, and forms outside it,
# for the byte check of node rows (``sensor_codec._node_shape``).
PM_FORMS = ["0", "000", "9" * 15, "1" + "0" * 15, "", "-3", "+5", " 5", "1_0", "12."]
ENV_FORMS = ["-0.00", "0.00", "0.01", "99.99", "100.00", "100.01", "-5.25", "0.50",
             "9" * 13 + ".99", "9" * 14 + ".99", "nan", "inf", "1e3", "+5", " 5", "5.",
             ".5", "-.12", "5.123", "", "5", "1..5", "10e3"]


@st.composite
def node_files(draw):
    """Rows in the node's own form, then a few fields replaced by edge values."""
    stamps = draw(epochs)
    rows = [[utc_datetime(e).isoformat().replace("+00:00", "Z"),
             *map(str, draw(st.lists(st.integers(0, 70000), min_size=3, max_size=3))),
             f"{draw(st.floats(-40, 60)):.2f}", f"{draw(st.floats(0, 100)):.2f}",
             f"{draw(st.floats(1, 2000)):.2f}"] for e in stamps]
    for _ in range(draw(st.integers(0, 2))):
        i, field = draw(st.integers(0, len(rows) - 1)), draw(st.integers(1, 6))
        rows[i][field] = draw(st.sampled_from(PM_FORMS if field <= 3 else ENV_FORMS))
    return "".join(",".join(row) + "\n" for row in rows)


class TestNodeRowShape:
    """The byte check that lets a chunk of node rows skip the casts of the fields
    no caller asked for must accept only rows ``parse_csv_row`` accepts."""

    @settings(SETTINGS, max_examples=300)
    @given(node_files(), st.sampled_from(CSV_FIELDS), st.sampled_from([1, 3, 4096]))
    # One example for each part of the byte check: a PM field of no digits; a
    # field that lends its neighbour a dot; rh_pct past its six bytes, above
    # 100.00 in six, or with another byte for its dot; zero pressure; and a
    # minus sign outside temp_c.
    @example("2022-07-01T16:00:00Z,5,,15,27.00,65.50,1008.25\n", "temp_c", 4096)
    @example("2022-07-01T16:00:00Z,5,12,12.,5,65.50,1008.25\n", "pm2_5", 4096)
    @example("2022-07-01T16:00:00Z,5,12,15,1..5,,1008.25\n", "pm2_5", 4096)
    @example("2022-07-01T16:00:00Z,5,12,15,27.00,1000.00,1008.25\n", "pm2_5", 4096)
    @example("2022-07-01T16:00:00Z,5,12,15,27.00,100.01,1008.25\n", "pm2_5", 4096)
    @example("2022-07-01T16:00:00Z,5,12,15,27.00,10e3,1008.25\n", "pm2_5", 4096)
    @example("2022-07-01T16:00:00Z,5,12,15,27.00,65.50,0.00\n", "pm2_5", 4096)
    @example("2022-07-01T16:00:00Z,5,12,15,27.00,-5.25,1008.25\n", "pm2_5", 4096)
    def test_node_files_match_the_row_reader(self, csv_path, monkeypatch, text, column,
                                             chunk_rows):
        monkeypatch.setattr(series, "_CHUNK_ROWS", chunk_rows)
        csv_path.write_text(text)
        want = outcome(read_sensor_series_oracle, csv_path, column)
        assert outcome(cli._read_sensor_series, csv_path, column) == want

    @pytest.mark.parametrize("column", CSV_FIELDS)
    def test_node_rows_skip_every_cast_but_the_column(self, csv_path, monkeypatch, column):
        samples = [SensorSample(at(10 * i), i, 10 ** 14 + i, 10 ** 15 - 1 - i,
                                temp_c=t, rh_pct=rh, pressure_hpa=p)
                   for i, (t, rh, p) in enumerate([(-5.25, 100.0, 1008.25), (-0.001, 0.0, 1.0),
                                                   (27.0, 99.99, 1e6), (-40.0, 100.0, 999.99),
                                                   (0.0, 5.5, 1013.0)])]
        csv_path.write_text("".join(sample_to_csv_row(s) + "\n" for s in samples))
        want = outcome(read_sensor_series_oracle, csv_path, column)
        assert want[0] == "ok"

        def no_call(*args):
            raise AssertionError(args)

        monkeypatch.setattr(series, "_CHUNK_ROWS", 2)
        monkeypatch.setattr(cli, "parse_csv_row", no_call)
        assert outcome(cli._read_sensor_series, csv_path, column) == want


@st.composite
def value_files(draw):
    stamps = draw(epochs)
    n = len(stamps)
    forms, pads, blanks = draw(layouts(n))
    width = draw(st.integers(2, 4))
    rows = [[stamp_text(e, form if form != "offset" else "z")]
            + [draw(floats) for _ in range(width - 1)]
            for e, form in zip(stamps, forms)]
    header = ",".join(["timestamp"] + [f"v{k}" for k in range(1, width)])
    return header, rows, pads, blanks


def write_value_file(path, header, rows, pads, blanks):
    path.write_text(header + "\n" + join_lines([",".join(r) for r in rows], pads, blanks))


VALUE_CORRUPTIONS = {
    "fields": lambda row: row[:1],
    "stamp": lambda row: ["2022-07-01 16:00:00"] + row[1:],
    "offset": lambda row: [row[0][:19] + "+00:00"] + row[1:],
    "year_0": lambda row: ["0000-01-01T00:00:00Z"] + row[1:],
    "number": lambda row: row[:1] + ["x1"] * (len(row) - 1),
    "nan": lambda row: row[:1] + ["nan"] * (len(row) - 1),
    "inf": lambda row: row[:1] + ["-inf"] * (len(row) - 1),
}


class TestValueReader:
    @SETTINGS
    @given(value_files(), st.sampled_from([1, -1]))
    @example(("t,v", [["2022-07-01T16:00:00Z", "1.5"]], [("", "")], [[], []]), 1)
    def test_valid_files_match_the_row_reader(self, csv_path, file, value_col):
        header, rows, pads, blanks = file
        write_value_file(csv_path, header, rows, pads, blanks)
        want = outcome(read_csv_series_oracle, csv_path, value_col)
        assert outcome(read_csv_series, csv_path, value_col) == want
        if all(left == "" for left, _ in pads):
            assert want[0] == "ok"

    @pytest.mark.parametrize("corruption", sorted(VALUE_CORRUPTIONS))
    @CORRUPT_SETTINGS
    @given(value_files(), st.sampled_from([1, -1]), st.data())
    def test_corrupted_files_raise_the_same_error(self, csv_path, corruption, file, value_col,
                                                  data):
        header, rows, pads, blanks = file
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = VALUE_CORRUPTIONS[corruption](rows[i])
        write_value_file(csv_path, header, rows, pads, blanks)
        want = outcome(read_csv_series_oracle, csv_path, value_col)
        assert want[0] is DataError
        assert outcome(read_csv_series, csv_path, value_col) == want

    @SETTINGS
    @given(value_files(), st.data())
    def test_time_going_back_raises_the_same_error(self, csv_path, file, data):
        header, rows, pads, blanks = file
        rows.append(list(rows[data.draw(st.integers(0, len(rows) - 1))]))
        write_value_file(csv_path, header, rows, pads + [("", "")], blanks + [[]])
        want = outcome(read_csv_series_oracle, csv_path, 1)
        assert outcome(read_csv_series, csv_path, 1) == want

    @pytest.mark.parametrize("text", ["", "\n \n", "t,v\n\n", "t,v\n2022-07-01T16:00:00Z\n"])
    def test_short_files(self, csv_path, text):
        csv_path.write_text(text)
        want = outcome(read_csv_series_oracle, csv_path, 1)
        assert want[0] is DataError
        assert outcome(read_csv_series, csv_path, 1) == want

    @SETTINGS
    @given(value_files(), st.sampled_from([1, -1]))
    @example(("t,v", [["2022-07-01T16:00:00Z"], ["2022-07-01T17:00:00Z", "1.5"]],
              [("", "")] * 2, [[], [], []]), 1)
    def test_one_field_first_row_raises_the_same_error(self, csv_path, file, value_col):
        # The byte parse takes its width from the first data row.
        header, rows, pads, blanks = file
        rows[0] = rows[0][:1]
        write_value_file(csv_path, header, rows, pads, blanks)
        want = outcome(read_csv_series_oracle, csv_path, value_col)
        assert want[0] is DataError
        assert outcome(read_csv_series, csv_path, value_col) == want

    @pytest.mark.parametrize("value_col", [1, -1])
    @pytest.mark.parametrize("case", sorted(edge_cases(PLAIN_VALUES, ",2.5")))
    def test_edge_cases_match_the_row_reader(self, csv_path, case, value_col):
        csv_path.write_bytes(edge_cases(PLAIN_VALUES, ",2.5")[case].encode())
        want = outcome(read_csv_series_oracle, csv_path, value_col)
        assert outcome(read_csv_series, csv_path, value_col) == want

    def test_crlf_copy_skips_the_row_parser(self, csv_path, monkeypatch):
        csv_path.write_bytes(PLAIN_VALUES.encode())
        want = outcome(read_csv_series, csv_path, -1)

        def no_rows(text):
            raise AssertionError(text)

        monkeypatch.setattr(series, "parse_utc", no_rows)
        csv_path.write_bytes(PLAIN_VALUES.replace("\n", "\r\n").encode())
        assert outcome(read_csv_series, csv_path, -1) == want

    def test_plain_file_skips_the_row_parser(self, csv_path, monkeypatch):
        csv_path.write_text("t,v\n2022-07-01T16:00:00Z,1.5\n2022-07-01T17:00:00Z, 2.5 \n")

        def no_rows(text):
            raise AssertionError(text)

        monkeypatch.setattr(series, "parse_utc", no_rows)
        got = read_csv_series(csv_path)
        assert got.epoch.tolist() == [E0, E0 + 3600]
        assert got.values.tolist() == [1.5, 2.5]
