import errno
import re
import tempfile
import time
import tracemalloc
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotrace import blob_store
from aerotrace.blob_store import TIER_ARCHIVE, TIER_COOL, BlobRef, BlobStore, UploadJob
from aerotrace.errors import BackendError, DataError

from conftest import T0


def bad_key_message(key: str) -> str:
    """A pattern for the message ``BlobRef`` gives an unsafe ``key``."""
    return (f"^key {re.escape(repr(key))} has (an empty, '\\.' or '\\.\\.' segment"
            "|a backslash or a sidecar suffix)$")


def make_store(tmp_path):
    return BlobStore(tmp_path / "store")


def write_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def link_across_file_systems(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link", str(src), None, str(dst))


def route_put(monkeypatch, route, put):
    """Make ``put(src, dst)`` the upload's one write: the link itself, or the
    copy after a link that fails across file systems."""
    if route == "link":
        monkeypatch.setattr(blob_store.os, "link", put)
    else:
        monkeypatch.setattr(blob_store.os, "link", link_across_file_systems)
        monkeypatch.setattr(blob_store.shutil, "copyfile", put)


def stored_files(tmp_path):
    """Every file below the ``node-a`` container, as paths relative to it."""
    container = tmp_path / "store" / "node-a"
    return sorted(p.relative_to(container).as_posix() for p in container.rglob("*") if p.is_file())


def put_bytes(store, key, data, uploaded_at, tmp_path):
    """Upload ``data`` to ``node-a/key`` at ``uploaded_at`` through a local source file."""
    src = write_file(tmp_path, "src.bin", data)
    store.upload(UploadJob(blob=BlobRef("node-a", key), local_path=src, uploaded_at=uploaded_at))


class TestAddressing:
    def test_container_idempotent(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        store.ensure_node_container("node-a")
        assert store.list_node_objects("node-a") == []

    def test_bad_node_id(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(DataError, match=r"^node id 'NODE!' must match \[a-z0-9-\]\{1,63\}$"):
            store.ensure_node_container("NODE!")

    def test_key_traversal_rejected(self):
        with pytest.raises(DataError, match=bad_key_message("video/../../etc/passwd")):
            BlobRef(container="node-a", key="video/../../etc/passwd")

    def test_empty_key_rejected(self):
        with pytest.raises(DataError, match=bad_key_message("")):
            BlobRef(container="node-a", key="")

    @pytest.mark.parametrize("key", [
        "/abs/path", "/etc/passwd", "video//x.fseq", "video/", ".", "video/./x",
        "video\\..\\x", "csv/day.csv.meta", "video/x.fseq.tmp"])
    def test_unsafe_key_rejected(self, key):
        with pytest.raises(DataError, match=bad_key_message(key)):
            BlobRef(container="node-a", key=key)

    @pytest.mark.parametrize("key", [
        "video/node-a_20220701_160000.fseq", "csv/node-a_2022-07-01.csv", "x"])
    def test_node_keys_valid(self, key):
        assert BlobRef(container="node-a", key=key).key == key

    def test_absolute_key_cannot_escape_root(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        outside = tmp_path / "outside.bin"
        path = write_file(tmp_path, "x.bin", b"abc")
        with pytest.raises(DataError, match=bad_key_message(str(outside))):
            store.upload(UploadJob(blob=BlobRef("node-a", str(outside)), local_path=path,
                                   uploaded_at=T0))
        assert not outside.exists()

    # Printable ASCII, weighted toward path separators and sidecar suffixes.
    # Keys stay well below the file system's name length limit.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["/", ".", "\\", "-", ".meta", ".tmp"])
                    | st.characters(min_codepoint=32, max_codepoint=126), max_size=30)
           .map("".join))
    def test_any_accepted_key_stays_inside_its_container(self, key):
        try:
            ref = BlobRef("node-a", key)
        except DataError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            src = write_file(tmp, "src.bin", b"abc")
            store = BlobStore(tmp / "store")
            store.ensure_node_container("node-a")
            store.upload(UploadJob(blob=ref, local_path=src, uploaded_at=T0))
            container = (tmp / "store" / "node-a").resolve()
            obj = (container / key).resolve()
            assert obj.is_relative_to(container) and obj.read_bytes() == b"abc"
            assert [o.key for o in store.list_node_objects("node-a")] == [key]
            written = {p.relative_to(tmp).as_posix() for p in tmp.rglob("*") if p.is_file()}
            assert written == {"src.bin", f"store/node-a/{key}", f"store/node-a/{key}.meta"}


class TestUploadDownload:
    def test_integrity_round_trip(self, tmp_path, rng):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        data = rng.integers(0, 256, size=1 << 20, dtype="uint8").tobytes()
        path = write_file(tmp_path, "blob.bin", data)
        job = UploadJob(blob=BlobRef("node-a", "video/blob.bin"), local_path=path, uploaded_at=T0)
        store.upload(job)
        assert job.attempts == 1
        assert store.list_node_objects("node-a")[0].uploaded_at == T0
        out = tmp_path / "out.bin"
        store.download(job.blob, out)
        assert out.read_bytes() == data

    def test_missing_object_is_backend_error(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        with pytest.raises(BackendError, match=r"^node-a/csv/nope\.csv not found$"):
            store.download(BlobRef("node-a", "csv/nope.csv"), tmp_path / "out.csv")
        with pytest.raises(BackendError, match="^container 'node-b' does not exist$"):
            store.download(BlobRef("node-b", "csv/nope.csv"), tmp_path / "out.csv")

    def test_container_isolation(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        store.ensure_node_container("node-b")
        path = write_file(tmp_path, "x.csv", b"hello")
        store.upload(UploadJob(blob=BlobRef("node-a", "csv/x.csv"), local_path=path,
                               uploaded_at=T0))
        assert [o.key for o in store.list_node_objects("node-a")] == ["csv/x.csv"]
        assert store.list_node_objects("node-b") == []


ROUTES = ["link", "copy-after-exdev"]


class TestOneAttempt:
    @pytest.mark.parametrize("route", ROUTES)
    def test_failing_put_is_attempted_once(self, tmp_path, monkeypatch, route):
        puts = []

        def failing_put(src, dst):
            puts.append(dst)
            raise BackendError(f"scripted failure #{len(puts)}")

        monkeypatch.setattr(time, "sleep", lambda s: pytest.fail(f"slept {s} s"))
        route_put(monkeypatch, route, failing_put)
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        job = UploadJob(blob=BlobRef("node-a", "video/x.bin"),
                        local_path=write_file(tmp_path, "x.bin", b"abc"), uploaded_at=T0)
        with pytest.raises(BackendError, match="^scripted failure #1$"):
            store.upload(job)
        assert len(puts) == job.attempts == 1
        assert store.list_node_objects("node-a") == []

    @pytest.mark.parametrize("route", ROUTES)
    def test_stored_size_mismatch_fails(self, tmp_path, monkeypatch, route):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        route_put(monkeypatch, route,
                  lambda src, dst: Path(dst).write_bytes(Path(src).read_bytes()[:-1]))
        job = UploadJob(blob=BlobRef("node-a", "video/x.bin"),
                        local_path=write_file(tmp_path, "x.bin", b"abc"), uploaded_at=T0)
        with pytest.raises(BackendError, match=f"^upload of {re.escape(str(job.local_path))} "
                                               "stored 2 of 3 bytes$"):
            store.upload(job)

    def test_missing_local_file(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        gone = tmp_path / "gone.bin"
        job = UploadJob(blob=BlobRef("node-a", "video/gone.bin"), local_path=gone, uploaded_at=T0)
        with pytest.raises(DataError, match=f"^{re.escape(str(gone))} does not exist$"):
            store.upload(job)


class TestLinkOrCopy:
    def _upload(self, tmp_path, data=b"abc"):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        path = write_file(tmp_path, "x.bin", data)
        store.upload(UploadJob(blob=BlobRef("node-a", "video/x.bin"), local_path=path,
                               uploaded_at=T0))
        return store, path, tmp_path / "store" / "node-a" / "video" / "x.bin"

    def test_upload_leaves_the_file_and_its_object_on_one_inode(self, tmp_path):
        _, path, obj = self._upload(tmp_path)
        assert obj.samefile(path)
        assert stored_files(tmp_path) == ["video/x.bin", "video/x.bin.meta"]

    def test_a_link_across_file_systems_falls_back_to_a_copy(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blob_store.os, "link", link_across_file_systems)
        _, path, obj = self._upload(tmp_path, b"chunk bytes")
        assert obj.read_bytes() == b"chunk bytes"
        assert not obj.samefile(path)
        assert stored_files(tmp_path) == ["video/x.bin", "video/x.bin.meta"]

    def test_a_tmp_left_by_a_crash_does_not_block_the_next_upload(self, tmp_path):
        stale = tmp_path / "store" / "node-a" / "video" / "x.bin.tmp"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"half a copy")
        _, path, obj = self._upload(tmp_path)
        assert obj.samefile(path) and obj.read_bytes() == b"abc"
        assert stored_files(tmp_path) == ["video/x.bin", "video/x.bin.meta"]

    def test_uploading_one_file_twice_leaves_one_object_and_its_sidecar(self, tmp_path):
        """The second upload links the inode that already is the object, and a
        rename between two links to one inode does nothing."""
        store, path, obj = self._upload(tmp_path)
        later = T0 + timedelta(hours=1)
        store.upload(UploadJob(blob=BlobRef("node-a", "video/x.bin"), local_path=path,
                               uploaded_at=later))
        assert stored_files(tmp_path) == ["video/x.bin", "video/x.bin.meta"]
        assert [o.uploaded_at for o in store.list_node_objects("node-a")] == [later]
        assert obj.read_bytes() == b"abc"

    def test_download_writes_a_file_of_its_own(self, tmp_path):
        store, _, obj = self._upload(tmp_path)
        out = tmp_path / "out.bin"
        store.download(BlobRef("node-a", "video/x.bin"), out)
        assert out.read_bytes() == b"abc"
        assert not out.samefile(obj) and out.stat().st_nlink == 1

    def test_download_over_a_linked_file_leaves_its_object_as_it_was(self, tmp_path):
        """A buffer file and its object are one inode; a download to the
        buffer file's name must not write the other object's bytes into both."""
        store, path, obj = self._upload(tmp_path)
        other = write_file(tmp_path, "y.bin", b"other bytes")
        store.upload(UploadJob(blob=BlobRef("node-a", "video/y.bin"), local_path=other,
                               uploaded_at=T0))
        store.download(BlobRef("node-a", "video/y.bin"), path)
        assert path.read_bytes() == b"other bytes"
        assert obj.read_bytes() == b"abc"


class TestTierPolicy:
    def _loaded_store(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        for name, age_d in [("old.bin", 40), ("fresh.bin", 1)]:
            put_bytes(store, f"video/{name}", b"x" * 10, T0 - timedelta(days=age_d), tmp_path)
        return store

    def test_age_boundary(self, tmp_path):
        store = self._loaded_store(tmp_path)
        moved = store.apply_tier_policy("node-a", timedelta(days=30), T0)
        assert [m.key for m in moved] == ["video/old.bin"]
        tiers = {o.key: o.tier for o in store.list_node_objects("node-a")}
        assert tiers == {"video/old.bin": TIER_ARCHIVE, "video/fresh.bin": TIER_COOL}

    def test_exact_boundary_not_archived(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        put_bytes(store, "csv/x.csv", b"d", T0 - timedelta(days=30), tmp_path)
        assert store.apply_tier_policy("node-a", timedelta(days=30), T0) == []
        moved = store.apply_tier_policy("node-a", timedelta(days=30), T0 + timedelta(seconds=1))
        assert [m.key for m in moved] == ["csv/x.csv"]

    def test_idempotent(self, tmp_path):
        store = self._loaded_store(tmp_path)
        store.apply_tier_policy("node-a", timedelta(days=30), T0)
        assert store.apply_tier_policy("node-a", timedelta(days=30), T0) == []

    def test_empty_container(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        assert store.apply_tier_policy("node-a", timedelta(days=30), T0) == []

    def test_archive_refuses_reads_until_rehydrated(self, tmp_path):
        store = self._loaded_store(tmp_path)
        store.apply_tier_policy("node-a", timedelta(days=30), T0)
        ref = BlobRef("node-a", "video/old.bin")
        out = tmp_path / "out.bin"
        with pytest.raises(BackendError,
                           match=r"^node-a/video/old\.bin is archived and cannot be downloaded$"):
            store.download(ref, out)
        assert not out.exists()
        meta = tmp_path / "store" / "node-a" / "video" / "old.bin.meta"
        meta.write_text(meta.read_text().replace(f"tier={TIER_ARCHIVE}", f"tier={TIER_COOL}"))
        store.download(ref, out)
        assert out.read_bytes() == b"x" * 10


class TestFilesystemSidecars:
    def test_meta_files_not_listed(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        put_bytes(store, "csv/day.csv", b"rows", T0, tmp_path)
        assert [o.key for o in store.list_node_objects("node-a")] == ["csv/day.csv"]

    def test_tier_survives_reopen(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        put_bytes(store, "csv/day.csv", b"rows", T0, tmp_path)
        assert store.apply_tier_policy("node-a", timedelta(days=1), T0 + timedelta(days=2))
        again = make_store(tmp_path)
        assert again.list_node_objects("node-a")[0].tier == TIER_ARCHIVE

    @pytest.mark.parametrize("sidecar", ["", "tier=cool\n", "tier=cool\nuploaded_at=soon\n"])
    def test_malformed_sidecar_is_backend_error(self, tmp_path, sidecar):
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        put_bytes(store, "csv/day.csv", b"rows", T0, tmp_path)
        (tmp_path / "store" / "node-a" / "csv" / "day.csv.meta").write_text(sidecar)
        with pytest.raises(BackendError, match="unreadable sidecar"):
            store.download(BlobRef("node-a", "csv/day.csv"), tmp_path / "out.csv")
        with pytest.raises(BackendError, match="unreadable sidecar"):
            store.list_node_objects("node-a")

    def test_sidecar_visible_before_data(self, tmp_path, monkeypatch):
        def no_sidecar(*args):
            raise OSError("disk full")

        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        monkeypatch.setattr(blob_store, "_write_meta", no_sidecar)
        with pytest.raises(OSError):
            put_bytes(store, "csv/day.csv", b"rows", T0, tmp_path)
        assert store.list_node_objects("node-a") == []
        assert list((tmp_path / "store" / "node-a").rglob("*.tmp")) == []


def test_download_never_holds_the_object_in_memory(tmp_path):
    store = make_store(tmp_path)
    store.ensure_node_container("node-a")
    path = tmp_path / "chunk.fseq"
    with open(path, "wb") as fh:
        fh.truncate(16 << 20)
    store.upload(UploadJob(blob=BlobRef("node-a", "video/chunk.fseq"), local_path=path,
                           uploaded_at=T0))
    out = tmp_path / "out.fseq"
    tracemalloc.start()
    try:
        store.download(BlobRef("node-a", "video/chunk.fseq"), out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == 16 << 20
    assert peak < 1 << 20


def test_upload_never_holds_the_file_in_memory(tmp_path):
    store = make_store(tmp_path)
    store.ensure_node_container("node-a")
    path = tmp_path / "chunk.fseq"
    with open(path, "wb") as fh:
        fh.truncate(16 << 20)
    job = UploadJob(blob=BlobRef("node-a", "video/chunk.fseq"), local_path=path, uploaded_at=T0)
    tracemalloc.start()
    try:
        store.upload(job)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.list_node_objects("node-a")[0].size == 16 << 20
    assert peak < 1 << 20
