import pytest

from aerotrace.blob_store import FilesystemBackend
from aerotrace.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, main
from aerotrace.sensor_codec import sample_to_csv_row
from aerotrace.series import write_csv_series
from aerotrace.synth import synthetic_sample_source

from conftest import T0, at, make_series


def test_store_get_missing_key_exits_backend_error(tmp_path, capsys):
    root = tmp_path / "store"
    backend = FilesystemBackend(root)
    backend.ensure_container("node-a")
    src = tmp_path / "day.csv"
    src.write_bytes(b"rows")
    backend.put("node-a", "csv/day.csv", src, T0)
    out = tmp_path / "got.csv"
    argv = ["store", "get", "--root", str(root), "--node", "node-a", "--out", str(out)]

    assert main(argv + ["--key", "csv/day.csv"]) == EXIT_OK
    assert out.read_bytes() == b"rows"

    assert main(argv + ["--key", "csv/nope.csv"]) == EXIT_BACKEND
    assert "backend error" in capsys.readouterr().err


def write_inputs(d):
    source = synthetic_sample_source(0)
    (d / "raw.csv").write_text("".join(sample_to_csv_row(source(at(10 * i))) + "\n"
                                       for i in range(60)))
    write_csv_series(d / "ref.csv", make_series([10 + i % 7 for i in range(60)]))
    write_csv_series(d / "test.csv", make_series([11 + i % 5 for i in range(60)]))
    write_csv_series(d / "veh.csv", make_series(range(10), step_s=3600))
    write_csv_series(d / "pm.csv", make_series([5, 3, 8, 1, 9, 2, 7, 4, 6, 0], step_s=3600))
    for name, buffer_dir in (("node.conf", d / "buf"), ("blocked.conf", d / "raw.csv")):
        (d / name).write_text(f"node_id=node-a\nbuffer_dir={buffer_dir}\n"
                              f"store_root={d / 'store'}\n")


@pytest.mark.parametrize("argv", [
    "analyze clean --in {d}/raw.csv --threshold -1",
    "analyze clean --in {d}/raw.csv --stddev-k 0",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --grid 0",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --grid 0.5s",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --window 0",
    "analyze calibrate --ref {d}/ref.csv --test {d}/test.csv --lambda nan",
    "correlate --vehicles {d}/veh.csv --pm25 {d}/pm.csv --max-lag -1 --out-dir {d}/corr",
    "node run --config {d}/node.conf --duration 1s --accel 0",
    "node run --config {d}/node.conf --duration 1s --accel inf",
    "node run --config {d}/node.conf --duration 1s --accel 1e308",
])
def test_out_of_range_value_exits_data_error(tmp_path, capsys, argv):
    write_inputs(tmp_path)
    assert main(argv.format(d=tmp_path).split()) == EXIT_DATA
    err = capsys.readouterr().err
    assert "aerotrace: data error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "correlate --vehicles {d}/veh.csv --pm25 {d}/pm.csv --out-dir {d}/raw.csv",
    "node run --config {d}/blocked.conf --duration 1s",
])
def test_unwritable_output_exits_data_error(tmp_path, capsys, argv):
    write_inputs(tmp_path)
    assert main(argv.format(d=tmp_path).split()) == EXIT_DATA
    assert capsys.readouterr().err.startswith("aerotrace: ")
