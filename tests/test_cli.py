from aerotrace.blob_store import FilesystemBackend
from aerotrace.cli import EXIT_BACKEND, EXIT_OK, main

from conftest import T0


def test_store_get_missing_key_exits_backend_error(tmp_path, capsys):
    root = tmp_path / "store"
    backend = FilesystemBackend(root)
    backend.ensure_container("node-a")
    backend.put("node-a", "csv/day.csv", b"rows", T0)
    out = tmp_path / "got.csv"
    argv = ["store", "get", "--root", str(root), "--node", "node-a", "--out", str(out)]

    assert main(argv + ["--key", "csv/day.csv"]) == EXIT_OK
    assert out.read_bytes() == b"rows"

    assert main(argv + ["--key", "csv/nope.csv"]) == EXIT_BACKEND
    assert "backend error" in capsys.readouterr().err
