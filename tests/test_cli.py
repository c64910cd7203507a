import contextlib
import io
import re
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotrace.blob_store import BlobRef, BlobStore, UploadJob
from aerotrace.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, STORE_ROOT_ENV, main
from aerotrace.fseq import write_fseq
from aerotrace.sensor_codec import parse_csv_row, sample_to_csv_row
from aerotrace.series import format_csv_series
from aerotrace.synth import parse_scene_script, synthetic_sample_source, write_scene_fseq

from conftest import T0, at, make_series


def test_store_get_missing_key_exits_backend_error(tmp_path, capsys):
    root = tmp_path / "store"
    store = BlobStore(root)
    store.ensure_node_container("node-a")
    src = tmp_path / "day.csv"
    src.write_bytes(b"rows")
    store.upload(UploadJob(blob=BlobRef("node-a", "csv/day.csv"), local_path=src, uploaded_at=T0))
    out = tmp_path / "got.csv"
    argv = ["store", "get", "--root", str(root), "--node", "node-a", "--out", str(out)]

    assert main(argv + ["--key", "csv/day.csv"]) == EXIT_OK
    assert out.read_bytes() == b"rows"

    assert main(argv + ["--key", "csv/nope.csv"]) == EXIT_BACKEND
    assert "backend error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "store ls --root {d}/typo/store --node node-a",
    "store get --root {d}/typo/store --node node-a --key csv/day.csv --out {d}/got.csv",
    "store tier-sweep --root {d}/typo/store --node node-a --archive-after 1d",
])
def test_read_only_store_command_on_a_missing_root_creates_nothing(tmp_path, capsys,
                                                                  monkeypatch, argv):
    monkeypatch.delenv(STORE_ROOT_ENV, raising=False)
    assert main(argv.format(d=tmp_path).split()) == EXIT_BACKEND
    assert "backend error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def write_inputs(d):
    source = synthetic_sample_source(0)
    (d / "raw.csv").write_text("".join(sample_to_csv_row(source(at(10 * i))) + "\n"
                                       for i in range(60)))
    (d / "subsecond.csv").write_text("2022-07-01T16:00:00.500+00:00,5,12,15,27.00,65.50,1008.25\n")
    (d / "huge.csv").write_text(f"2022-07-01T16:00:00Z,5,1{'0' * 400},15,27.00,65.50,1008.25\n")
    (d / "ages.csv").write_text("0001-01-01T00:00:00Z,5,12,15,27.00,65.50,1008.25\n"
                                "9999-12-31T23:59:59Z,5,12,15,27.00,65.50,1008.25\n")
    write_fseq(d / "minute.fseq", np.zeros((60, 6, 8), dtype=np.uint8), fps=1)
    for name, values in (("rising-1e308.csv", [1e308 + i * 1e306 for i in range(60)]),
                         ("flat-1e308.csv", [1.5e308] * 60)):
        (d / name).write_text(format_csv_series(make_series(values, step_s=60), "minute,value"))
    for name, series in (("ref.csv", make_series([10 + i % 7 for i in range(60)])),
                         ("test.csv", make_series([11 + i % 5 for i in range(60)])),
                         ("veh.csv", make_series(range(10), step_s=3600)),
                         ("pm.csv", make_series([5, 3, 8, 1, 9, 2, 7, 4, 6, 0], step_s=3600))):
        (d / name).write_text(format_csv_series(series, "hour_start,value"))
    for name, buffer_dir in (("node.conf", d / "buf"), ("blocked.conf", d / "raw.csv")):
        (d / name).write_text(f"node_id=node-a\nbuffer_dir={buffer_dir}\n"
                              f"store_root={d / 'store'}\n")
    (d / "no-store.conf").write_text(f"node_id=node-a\nbuffer_dir={d / 'buf'}\n")
    for name, line in (("slow.conf", "sample_interval=3000000d"),
                       ("long-chunk.conf", "video_chunk_len=3000000d"),
                       ("late.conf", "start_time=9999-12-31T23:59:00Z"),
                       ("early.conf", "start_time=1969-12-31T23:59:30Z"),
                       ("negative-seed.conf", "seed=-3"),
                       ("many-frames.conf", "video_chunk_len=20000000\nvideo_fps=255\n"
                                            "frame_width=8\nframe_height=8")):
        (d / name).write_text((d / "node.conf").read_text() + line + "\n")
    for name, line in (("nan.scene", "duration=nan"), ("inf.scene", "duration=inf"),
                       ("long.scene", "duration=1e308"),
                       ("far.scene", f"object car size=4x4 start=1{'0' * 400},5 "
                                     "velocity=1,0 intensity=200"),
                       ("fast.scene", f"object car size=4x4 start=0,5 "
                                      f"velocity=0,1{'0' * 400} intensity=200"),
                       ("narrow.scene", "width=-5\nheight=10\nduration=1"),
                       ("wide.scene", "width=65536\nheight=1\nduration=1"),
                       ("flat.scene", "width=10\nheight=0\nduration=1"),
                       ("noisy.scene", "width=10\nheight=10\nduration=1\nnoise=99999"),
                       ("quiet.scene", "width=10\nheight=10\nduration=1\nnoise=-1"),
                       ("grainy.scene", "width=10\nheight=10\nduration=1\nnoise=5"),
                       ("bright.scene", "width=10\nheight=10\nduration=1\n"
                                        "object car size=4x4 start=0,5 velocity=1,0 "
                                        "intensity=99999")):
        (d / name).write_text(line + "\n")


# A duration longer than ``timedelta.max``: 10**30 days.
HUGE = "1" + "0" * 30 + "d"
# Values refused with the whole message below, before any file is written.
NAMED_VALUES = {
    "analyze clean --in {d}/raw.csv --threshold nan":
        "hw_error_threshold must be positive, got nan",
    "analyze clean --in {d}/raw.csv --stddev-k nan": "stddev_k must be positive, got nan",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --grid 90.5s":
        "--grid must be a whole number of seconds (got '90.5s')",
    "synth --script {d}/grainy.scene --out {d}/grainy.fseq --seed -1":
        "seed=-1 must not be negative",
    "node run --config {d}/node.conf --duration 1s --seed -3": "seed=-3 must not be negative",
    # Near the float64 limit: every cost is small, but sums of costs (dtw) or of
    # values (the moving average) overflow.
    "analyze calibrate --ref {d}/rising-1e308.csv --test {d}/rising-1e308.csv "
    "--out {d}/report.txt": "dtw of 60 x 60 points overflows: values too large for float64",
    "analyze calibrate --ref {d}/flat-1e308.csv --test {d}/flat-1e308.csv --out {d}/report.txt":
        "moving average of 60 points overflows: values too large for float64",
    "node run --config {d}/negative-seed.conf --duration 1s": "seed=-3 must not be negative",
    "node run --config {d}/early.conf --duration 20s":
        "start_time=1969-12-31T23:59:30Z is before 1970-01-01T00:00:00Z",
    "analyze clean --in {d}/ages.csv --out {d}/clean.csv":
        "the series spans 87649416 buckets of 3600 s, from 0001-01-01T00:00:00Z to "
        "9999-12-31T23:00:00Z, over the limit of 100000",
}


@pytest.mark.parametrize("argv", [
    "analyze clean --in {d}/raw.csv --threshold -1",
    "analyze clean --in {d}/raw.csv --stddev-k 0",
    "analyze clean --in {d}/subsecond.csv",
    "analyze clean --in {d}/huge.csv",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --grid 0",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --grid 0.5s",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --window 0",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --lambda nan",
    "correlate --vehicles {d}/veh.csv --pm25 {d}/pm.csv --max-lag -1 --out-dir {d}/corr",
    "count --in {d}/minute.fseq --line nan,0,nan,182",
    "count --in {d}/minute.fseq --line 0,inf,8,6",
    "count --in {d}/minute.fseq --line 1e308,0,-1e308,182",
    "count --in {d}/minute.fseq --line 0,0,8,6 --start 9999-12-31T23:59:30Z",
    "count --in {d}/minute.fseq --line 0,0,8,6 --start nope",
    "store tier-sweep --root {d}/store --node node-a --archive-after 1d --now nope",
    "node run --config {d}/node.conf --duration 1s --accel 0",
    "node run --config {d}/node.conf --duration 1s --accel inf",
    f"node run --config {{d}}/node.conf --duration {HUGE}",
    f"store tier-sweep --root {{d}}/store --node node-a --archive-after {HUGE}",
    f"analyze calibrate --ref {{d}}/ref.csv --test {{d}}/test.csv --window {HUGE}",
    f"analyze calibrate --ref {{d}}/ref.csv --test {{d}}/test.csv --grid {HUGE}",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --lambda 1e308",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --lambda 1e12",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --lambda 1e50",
    "node run --config {d}/node.conf --duration 3000000d",
    "node run --config {d}/slow.conf --duration 1s",
    "node run --config {d}/long-chunk.conf --duration 1s",
    "node run --config {d}/late.conf --duration 20s",
    "node run --config {d}/many-frames.conf --duration 1s",
    "node run --config {d}/no-store.conf --duration 1s",
    "synth --script {d}/nan.scene --out {d}/nan.fseq",
    "synth --script {d}/inf.scene --out {d}/inf.fseq",
    "synth --script {d}/long.scene --out {d}/long.fseq",
    "synth --script {d}/far.scene --out {d}/far.fseq",
    "synth --script {d}/fast.scene --out {d}/fast.fseq",
    "synth --script {d}/narrow.scene --out {d}/narrow.fseq",
    "synth --script {d}/wide.scene --out {d}/wide.fseq",
    "synth --script {d}/flat.scene --out {d}/flat.fseq",
    "synth --script {d}/noisy.scene --out {d}/noisy.fseq",
    "synth --script {d}/quiet.scene --out {d}/quiet.fseq",
    "synth --script {d}/bright.scene --out {d}/bright.fseq",
    *NAMED_VALUES,
])
def test_out_of_range_value_exits_data_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv(STORE_ROOT_ENV, raising=False)
    write_inputs(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(argv.format(d=tmp_path).split()) == EXIT_DATA
    err = capsys.readouterr().err
    assert "aerotrace: data error: " in err
    assert "Traceback" not in err
    if "no-store.conf" in argv:
        assert "store_root" in err and "--root" not in err
    if argv in NAMED_VALUES:
        assert err == f"aerotrace: data error: {NAMED_VALUES[argv]}\n"
        assert sorted(tmp_path.iterdir()) == before


def test_a_month_at_60_s_is_refused_before_the_dtw_table_is_allocated(tmp_path, capsys):
    for name, values in (("ref.csv", [10 + i % 7 for i in range(30 * 1440)]),
                         ("test.csv", [11 + i % 5 for i in range(30 * 1440)])):
        (tmp_path / name).write_text(format_csv_series(make_series(values, step_s=60),
                                                       "minute,value"))
    argv = f"analyze calibrate --ref {tmp_path}/ref.csv --test {tmp_path}/test.csv"
    tracemalloc.start()
    try:
        assert main(argv.split()) == EXIT_DATA
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == ("aerotrace: data error: dtw of 43200 x 43200 points "
                                       "needs 1866240000 cells, over the limit of 100000000\n")
    assert peak < 64 << 20


@pytest.mark.parametrize("argv, name", [
    ("analyze clean --in {f}", "raw.csv"),
    ("analyze calibrate --ref {f} --test {d}/test.csv", "ref.csv"),
    ("correlate --vehicles {d}/veh.csv --pm25 {f} --out-dir {d}/corr", "pm.csv"),
    ("node run --config {f} --duration 1s", "node.conf"),
    ("synth --script {f} --out {d}/nan.fseq", "nan.scene"),
])
def test_a_byte_that_is_not_utf8_exits_data_error(tmp_path, capsys, argv, name):
    write_inputs(tmp_path)
    f = tmp_path / name
    data = f.read_bytes()
    f.write_bytes(data[:10] + b"\xff" + data[10:])
    assert main(argv.format(d=tmp_path, f=f).split()) == EXIT_DATA
    assert capsys.readouterr().err == f"aerotrace: data error: {f}: byte 10 is not UTF-8\n"


@pytest.mark.parametrize("argv", [
    "correlate --vehicles {d}/veh.csv --pm25 {d}/pm.csv --out-dir {d}/raw.csv",
    "node run --config {d}/blocked.conf --duration 1s",
])
def test_unwritable_output_exits_data_error(tmp_path, capsys, argv):
    write_inputs(tmp_path)
    assert main(argv.format(d=tmp_path).split()) == EXIT_DATA
    assert capsys.readouterr().err.startswith("aerotrace: ")


def small_node_conf(d, *lines):
    """A node config of 64x36 frames and 5 s chunks, buffer and store in ``d``."""
    conf = d / "small.conf"
    conf.write_text("\n".join([
        "node_id=node-a", f"buffer_dir={d / 'buf'}", f"store_root={d / 'store'}",
        "frame_width=64", "frame_height=36", "video_chunk_len=5s", *lines]) + "\n")
    return conf


def test_node_run_without_start_time_starts_at_the_wall_time(tmp_path, monkeypatch):
    monkeypatch.delenv(STORE_ROOT_ENV, raising=False)
    conf = small_node_conf(tmp_path)
    before = datetime.now(tz=timezone.utc).replace(microsecond=0)
    argv = ["node", "run", "--config", str(conf), "--duration", "1s", "--accel", "1e6"]
    assert main(argv) == EXIT_OK
    after = datetime.now(tz=timezone.utc)
    first_csv = sorted((tmp_path / "buf").glob("node-a_*.csv"))[0]
    first = parse_csv_row(first_csv.read_text().splitlines()[0]).timestamp
    assert before <= first <= after


# Clocks this fast pass year 9999 within milliseconds of real time.
@pytest.mark.parametrize("accel", ["1e14", "1e308"])
def test_node_run_at_a_huge_accel_stores_every_file(tmp_path, monkeypatch, accel):
    monkeypatch.delenv(STORE_ROOT_ENV, raising=False)
    conf = small_node_conf(tmp_path, "start_time=2022-07-01T16:00:00Z")
    argv = ["node", "run", "--config", str(conf), "--duration", "60s", "--accel", accel]
    assert main(argv) == EXIT_OK
    keys = [o.key for o in BlobStore(tmp_path / "store").list_node_objects("node-a")]
    assert keys == ["csv/node-a_2022-07-01.csv"] + [
        f"video/node-a_20220701_1600{s:02d}.fseq" for s in range(0, 60, 5)]
    names = [key.split("/", 1)[1] for key in keys]
    assert sorted(p.name for p in (tmp_path / "buf").iterdir()) == sorted(
        names + [name + ".uploaded" for name in names])


def test_tier_sweep_after_an_accelerated_session_uses_scheduled_upload_times(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(STORE_ROOT_ENV, raising=False)
    conf = small_node_conf(tmp_path, "start_time=2022-07-01T16:00:00Z")
    root = str(tmp_path / "store")
    argv = ["node", "run", "--config", str(conf), "--duration", "10s", "--accel", "1e8"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main(["store", "ls", "--root", root, "--node", "node-a"]) == EXIT_OK
    listing = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    # A chunk is queued when the next chunk's first frame seals it; the rest at the end.
    assert [(key, tier, uploaded_at) for key, _, tier, uploaded_at in listing] == [
        ("csv/node-a_2022-07-01.csv", "cool", "2022-07-01T16:00:10Z"),
        ("video/node-a_20220701_160000.fseq", "cool", "2022-07-01T16:00:05Z"),
        ("video/node-a_20220701_160005.fseq", "cool", "2022-07-01T16:00:10Z")]
    assert main(["store", "tier-sweep", "--root", root, "--node", "node-a",
                 "--archive-after", "30d", "--now", "2022-08-01T16:00:11Z"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [key for key, *_ in listing]


# -- Every command that reads a file ends in 0, 2 or 3 on a damaged copy ------

# Each command, the file it reads, and the CSV column it takes its values from.
FUZZ_COMMANDS = [
    ("analyze clean --in {f} --out {d}/clean.csv", "raw.csv", 2),
    ("analyze clean --in {f} --column pressure_hpa --out {d}/clean.csv", "raw.csv", 6),
    ("analyze calibrate --ref {f} --test {d}/test.csv --out {d}/report.txt", "ref.csv", 1),
    ("analyze calibrate --ref {d}/ref.csv --test {f} --out {d}/report.txt", "test.csv", 1),
    ("correlate --vehicles {f} --pm25 {d}/pm.csv --max-lag 2 --out-dir {d}/corr", "veh.csv", 1),
    ("correlate --vehicles {d}/veh.csv --pm25 {f} --max-lag 2 --out-dir {d}/corr", "pm.csv", 1),
    ("count --in {f} --line 8,0,8,12 --min-area 1 --out {d}/counts.csv", "scene.fseq", None),
]
# Bytes to insert or write over: not ASCII, NUL and other control bytes, and
# line and field breaks; and values for a whole field, at the edges of what a
# number or a stamp holds.
FUZZ_BYTES = [b"\x00", b"\xff", b"\xc3\xa9", b"\xe2\x80\xa8", b"\x85", b"\x1c", b"\x0b",
              b"\r", b"\n", b",", b"-", b"\xff\xff\xff\xff", b"\x00\x00\x00\x00"]
FUZZ_NUMBERS = [b"9" * 400, b"nan", b"-inf", b"1e308", b"-1e308", b"4.9e-324",
                b"18446744073709551616", b"-0", b""]
FUZZ_FIELDS = FUZZ_NUMBERS + [b"2022-01-01T00:00:00Z", b"2022-12-31T23:59:59Z",
                              b"0001-01-01T00:00:00Z", b"9999-12-31T23:59:59Z"]
# Where to change a file: mostly near its start, where the headers are.
fuzz_offsets = st.one_of(st.integers(0, 40), st.integers(0, 4000))
fuzz_edits = st.lists(st.one_of(
    st.tuples(st.just("flip"), fuzz_offsets, st.integers(1, 255)),
    st.tuples(st.just("delete"), fuzz_offsets, st.integers(1, 30)),
    st.tuples(st.just("truncate"), fuzz_offsets),
    st.tuples(st.just("insert"), fuzz_offsets, st.sampled_from(FUZZ_BYTES)),
    st.tuples(st.just("overwrite"), fuzz_offsets, st.sampled_from(FUZZ_BYTES)),
    st.tuples(st.just("field"), fuzz_offsets, st.sampled_from(FUZZ_FIELDS))),
    min_size=1, max_size=3)


def damage(data, edits):
    for kind, at, *arg in edits:
        at = min(at, len(data))
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ arg[0]]) + data[at + 1:]
        elif kind == "delete":
            data = data[:at] + data[at + arg[0]:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + arg[0] + data[at:]
        elif kind == "overwrite":
            data = data[:at] + arg[0] + data[at + len(arg[0]):]
        elif kind == "field":  # the field numbered ``at``, counting through the file
            fields = [m.span() for m in re.finditer(rb"[^,\r\n]+", data)]
            if fields:
                a, b = fields[at % len(fields)]
                data = data[:a] + arg[0] + data[b:]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_inputs(d)
    script = parse_scene_script("width=16\nheight=12\nfps=5\nduration=2\nnoise=3\n"
                                "object car size=4x4 start=0,4 velocity=8,0 intensity=200\n")
    write_scene_fseq(script, d / "scene.fseq", seed=1)
    return d


def assert_exit_code_and_one_message(fuzz_dir, argv, name, data):
    f = fuzz_dir / f"damaged-{name}"
    f.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.format(d=fuzz_dir, f=f).split())
    assert code in (EXIT_OK, EXIT_DATA, EXIT_BACKEND)
    if code != EXIT_OK:
        assert err.getvalue().splitlines()[-1].startswith("aerotrace:")


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FUZZ_COMMANDS), fuzz_edits)
def test_a_damaged_input_ends_in_an_exit_code_and_one_message(fuzz_dir, command, edits):
    argv, name, _ = command
    assert_exit_code_and_one_message(fuzz_dir, argv, name,
                                     damage((fuzz_dir / name).read_bytes(), edits))


def test_each_number_edge_in_the_column_a_command_reads_ends_in_an_exit_code(fuzz_dir):
    # Every value of FUZZ_NUMBERS, in turn, replaces the first data row's value
    # of the column each CSV command reads, so each reaches its number conversion.
    for argv, name, column in FUZZ_COMMANDS:
        if column is None:
            continue
        lines = (fuzz_dir / name).read_bytes().split(b"\n")
        row = lines[1].split(b",")
        for value in FUZZ_NUMBERS:
            row[column] = value
            data = b"\n".join([lines[0], b",".join(row), *lines[2:]])
            assert_exit_code_and_one_message(fuzz_dir, argv, name, data)
