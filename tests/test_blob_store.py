import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest

from aerotrace.blob_store import (
    TIER_ARCHIVE, TIER_COOL, ArchivedObject, BackendUnavailable, BlobRef, BlobStore,
    FilesystemBackend, InvalidBlobKey, InvalidNodeId, LocalFileMissing, UploadFailed,
    UploadJob, estimate_storage_cost)
from aerotrace.errors import DataError

from conftest import T0, FakeSleeper, FlakyBackend, at

UTC = timezone.utc


def make_store(tmp_path, backend=None, now=None):
    sleeper = FakeSleeper()
    store = BlobStore(backend or FilesystemBackend(tmp_path / "store"), sleep=sleeper,
                      now=now or (lambda: T0))
    return store, sleeper


def write_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def put_bytes(backend, key, data, uploaded_at, tmp_path):
    """Store ``data`` under ``node-a/key`` through a local source file."""
    return backend.put("node-a", key, write_file(tmp_path, "src.bin", data), uploaded_at)


class TestAddressing:
    def test_container_idempotent(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.ensure_node_container("node-a")
        store.ensure_node_container("node-a")
        assert store.list_node_objects("node-a") == []

    def test_bad_node_id(self, tmp_path):
        store, _ = make_store(tmp_path)
        with pytest.raises(InvalidNodeId):
            store.ensure_node_container("NODE!")

    def test_key_traversal_rejected(self):
        with pytest.raises(InvalidBlobKey):
            BlobRef(container="node-a", key="video/../../etc/passwd")

    def test_empty_key_rejected(self):
        with pytest.raises(InvalidBlobKey):
            BlobRef(container="node-a", key="")

    @pytest.mark.parametrize("key", [
        "/abs/path", "/etc/passwd", "video//x.fseq", "video/", ".", "video/./x",
        "video\\..\\x", "csv/day.csv.meta", "video/x.fseq.tmp"])
    def test_unsafe_key_rejected(self, key):
        with pytest.raises(InvalidBlobKey):
            BlobRef(container="node-a", key=key)

    @pytest.mark.parametrize("key", [
        "video/node-a_20220701_160000.fseq", "csv/node-a_2022-07-01.csv", "x"])
    def test_node_keys_valid(self, key):
        assert BlobRef(container="node-a", key=key).key == key

    def test_absolute_key_cannot_escape_root(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.ensure_node_container("node-a")
        outside = tmp_path / "outside.bin"
        path = write_file(tmp_path, "x.bin", b"abc")
        with pytest.raises(InvalidBlobKey):
            store.upload(UploadJob(blob=BlobRef("node-a", str(outside)), local_path=path))
        assert not outside.exists()


# One backend ships; the "fs" id keeps these test names stable.
@pytest.mark.parametrize("backend_cls", [FilesystemBackend], ids=["fs"])
class TestUploadDownload:
    def test_integrity_round_trip(self, backend_cls, tmp_path, rng):
        store, _ = make_store(tmp_path, backend_cls(tmp_path / "store"))
        store.ensure_node_container("node-a")
        data = rng.integers(0, 256, size=1 << 20, dtype="uint8").tobytes()
        path = write_file(tmp_path, "blob.bin", data)
        job = UploadJob(blob=BlobRef("node-a", "video/blob.bin"), local_path=path)
        store.upload(job)
        assert job.confirmed_at == T0
        assert job.attempts == 1
        assert store.download(job.blob) == data

    def test_missing_object_is_backend_error(self, backend_cls, tmp_path):
        store, _ = make_store(tmp_path, backend_cls(tmp_path / "store"))
        store.ensure_node_container("node-a")
        with pytest.raises(BackendUnavailable):
            store.download(BlobRef("node-a", "csv/nope.csv"))
        with pytest.raises(BackendUnavailable):
            store.rehydrate(BlobRef("node-a", "csv/nope.csv"))

    def test_container_isolation(self, backend_cls, tmp_path):
        store, _ = make_store(tmp_path, backend_cls(tmp_path / "store"))
        store.ensure_node_container("node-a")
        store.ensure_node_container("node-b")
        path = write_file(tmp_path, "x.csv", b"hello")
        store.upload(UploadJob(blob=BlobRef("node-a", "csv/x.csv"), local_path=path))
        assert [o.key for o in store.list_node_objects("node-a")] == ["csv/x.csv"]
        assert store.list_node_objects("node-b") == []


class TestRetries:
    def test_two_failures_then_success(self, tmp_path):
        backend = FlakyBackend(tmp_path / "store", fail_times=2)
        store, sleeper = make_store(tmp_path, backend)
        store.ensure_node_container("node-a")
        path = write_file(tmp_path, "x.bin", b"abc")
        job = store.upload(UploadJob(blob=BlobRef("node-a", "video/x.bin"), local_path=path))
        assert job.confirmed_at == T0
        assert job.attempts == 3
        assert sleeper.sleeps == [5.0, 10.0]

    def test_permanent_failure_hits_ceiling(self, tmp_path):
        backend = FlakyBackend(tmp_path / "store", fail_times=None)
        store, sleeper = make_store(tmp_path, backend)
        store.ensure_node_container("node-a")
        path = write_file(tmp_path, "x.bin", b"abc")
        job = UploadJob(blob=BlobRef("node-a", "video/x.bin"), local_path=path)
        with pytest.raises(UploadFailed):
            store.upload(job)
        assert job.confirmed_at is None
        assert job.attempts == 5
        assert sleeper.sleeps == [5.0, 10.0, 20.0, 40.0]

    def test_stored_size_mismatch_fails(self, tmp_path, monkeypatch):
        store, _ = make_store(tmp_path)
        store.ensure_node_container("node-a")
        put = FilesystemBackend.put
        monkeypatch.setattr(FilesystemBackend, "put", lambda *a: put(*a) - 1)
        job = UploadJob(blob=BlobRef("node-a", "video/x.bin"),
                        local_path=write_file(tmp_path, "x.bin", b"abc"))
        with pytest.raises(UploadFailed):
            store.upload(job)
        assert job.confirmed_at is None

    def test_missing_local_file(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.ensure_node_container("node-a")
        job = UploadJob(blob=BlobRef("node-a", "video/gone.bin"),
                        local_path=tmp_path / "gone.bin")
        with pytest.raises(LocalFileMissing):
            store.upload(job)


class TestTierPolicy:
    def _loaded_store(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.ensure_node_container("node-a")
        for name, age_d in [("old.bin", 40), ("fresh.bin", 1)]:
            path = write_file(tmp_path, name, b"x" * 10)
            uploaded = T0 - timedelta(days=age_d)
            store.backend.put("node-a", f"video/{name}", path, uploaded)
        return store

    def test_age_boundary(self, tmp_path):
        store = self._loaded_store(tmp_path)
        moved = store.apply_tier_policy("node-a", archive_after=timedelta(days=30), now=T0)
        assert [m.key for m in moved] == ["video/old.bin"]
        tiers = {o.key: o.tier for o in store.list_node_objects("node-a")}
        assert tiers == {"video/old.bin": TIER_ARCHIVE, "video/fresh.bin": TIER_COOL}

    def test_exact_boundary_not_archived(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.ensure_node_container("node-a")
        put_bytes(store.backend, "csv/x.csv", b"d", T0 - timedelta(days=30), tmp_path)
        assert store.apply_tier_policy("node-a", timedelta(days=30), now=T0) == []
        just_over = T0 + timedelta(seconds=1)
        moved = store.apply_tier_policy("node-a", timedelta(days=30), now=just_over)
        assert [m.key for m in moved] == ["csv/x.csv"]

    def test_idempotent(self, tmp_path):
        store = self._loaded_store(tmp_path)
        store.apply_tier_policy("node-a", timedelta(days=30), now=T0)
        assert store.apply_tier_policy("node-a", timedelta(days=30), now=T0) == []

    def test_empty_container(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.ensure_node_container("node-a")
        assert store.apply_tier_policy("node-a", timedelta(days=30), now=T0) == []

    def test_archive_refuses_reads_until_rehydrated(self, tmp_path):
        store = self._loaded_store(tmp_path)
        store.apply_tier_policy("node-a", timedelta(days=30), now=T0)
        ref = BlobRef("node-a", "video/old.bin")
        with pytest.raises(ArchivedObject):
            store.download(ref)
        store.rehydrate(ref)
        assert store.download(ref) == b"x" * 10


class TestCostModel:
    def test_zero_days(self):
        assert estimate_storage_cost(30e9, 0, 0.01) == 0.0

    def test_closed_form_30_days(self):
        r = 0.0152
        assert estimate_storage_cost(30e9, 30, r) == pytest.approx(465.0 * r, rel=1e-12)

    def test_linearity_in_daily_bytes(self):
        one = estimate_storage_cost(10e9, 17, 0.02)
        two = estimate_storage_cost(20e9, 17, 0.02)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            estimate_storage_cost(-1, 3, 0.1)


class TestFilesystemSidecars:
    def test_meta_files_not_listed(self, tmp_path):
        backend = FilesystemBackend(tmp_path / "store")
        backend.ensure_container("node-a")
        put_bytes(backend, "csv/day.csv", b"rows", T0, tmp_path)
        assert [o.key for o in backend.list_objects("node-a")] == ["csv/day.csv"]

    def test_tier_survives_reopen(self, tmp_path):
        root = tmp_path / "store"
        backend = FilesystemBackend(root)
        backend.ensure_container("node-a")
        put_bytes(backend, "csv/day.csv", b"rows", T0, tmp_path)
        backend.set_tier("node-a", "csv/day.csv", TIER_ARCHIVE)
        again = FilesystemBackend(root)
        assert again.list_objects("node-a")[0].tier == TIER_ARCHIVE

    @pytest.mark.parametrize("sidecar", ["", "tier=cool\n", "tier=cool\nuploaded_at=soon\n"])
    def test_malformed_sidecar_is_backend_error(self, tmp_path, sidecar):
        backend = FilesystemBackend(tmp_path / "store")
        backend.ensure_container("node-a")
        put_bytes(backend, "csv/day.csv", b"rows", T0, tmp_path)
        (tmp_path / "store" / "node-a" / "csv" / "day.csv.meta").write_text(sidecar)
        with pytest.raises(BackendUnavailable):
            backend.get_tier("node-a", "csv/day.csv")
        with pytest.raises(BackendUnavailable):
            backend.list_objects("node-a")

    def test_sidecar_visible_before_data(self, tmp_path, monkeypatch):
        def no_sidecar(*args):
            raise OSError("disk full")

        backend = FilesystemBackend(tmp_path / "store")
        backend.ensure_container("node-a")
        monkeypatch.setattr(backend, "_write_meta", no_sidecar)
        with pytest.raises(OSError):
            put_bytes(backend, "csv/day.csv", b"rows", T0, tmp_path)
        assert backend.list_objects("node-a") == []


def test_upload_never_holds_the_file_in_memory(tmp_path):
    store, _ = make_store(tmp_path)
    store.ensure_node_container("node-a")
    path = tmp_path / "chunk.fseq"
    with open(path, "wb") as fh:
        fh.truncate(16 << 20)
    job = UploadJob(blob=BlobRef("node-a", "video/chunk.fseq"), local_path=path)
    tracemalloc.start()
    try:
        store.upload(job)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert job.confirmed_at == T0
    assert store.list_node_objects("node-a")[0].size == 16 << 20
    assert peak < 1 << 20
