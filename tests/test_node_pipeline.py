import threading
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from aerotrace import node_pipeline
from aerotrace.blob_store import BlobRef, BlobStore, FilesystemBackend
from aerotrace.clocks import AcceleratedClock
from aerotrace.errors import DataError
from aerotrace.node_pipeline import (
    BufferDirUnwritable, NodeConfig, SessionSummary, UploadWorker, daily_csv_name,
    marker_path, parse_duration, parse_node_config, read_marker, retention_sweep,
    run_node, scan_unconfirmed, write_marker)
from aerotrace.sensor_codec import parse_csv_row
from aerotrace.synth import synthetic_sample_source

from conftest import FlakyBackend

UTC = timezone.utc
T0 = datetime(2022, 7, 1, 16, 0, 0, tzinfo=UTC)


def fast_frame_source(width=64, height=36):
    base = np.full((height, width), 55, dtype=np.uint8)

    def source(ts):
        frame = base.copy()
        frame[0, 0] = int(ts.timestamp()) % 256
        return frame

    return source


def make_config(tmp_path, **overrides):
    defaults = dict(node_id="node-a", buffer_dir=tmp_path / "buffer",
                    frame_width=64, frame_height=36, retention_s=86400.0,
                    start_time=T0)
    defaults.update(overrides)
    return NodeConfig(**defaults)


def make_store(clock, tmp_path, backend=None):
    backend = backend or FilesystemBackend(tmp_path / "store")
    return BlobStore(backend, sleep=clock.sleep, now=clock.now)


def run(config, clock, store, duration_s, **kwargs):
    return run_node(config, synthetic_sample_source(config.seed),
                    fast_frame_source(config.frame_width, config.frame_height),
                    store, clock, timedelta(seconds=duration_s), **kwargs)


class SlowBackend:
    """FilesystemBackend wrapper that adds virtual latency to every put via the run's clock."""

    def __init__(self, root, clock, latency_s):
        self.inner = FilesystemBackend(root)
        self.clock = clock
        self.latency_s = latency_s

    def put(self, container, key, src, uploaded_at):
        self.clock.sleep(self.latency_s)
        return self.inner.put(container, key, src, uploaded_at)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class BackwardsWindowClock:
    """Delegates to an accelerated clock but reports a regressed wall time
    inside one virtual window."""

    def __init__(self, inner, window_start_s, window_end_s):
        self.inner = inner
        self.lo = window_start_s
        self.hi = window_end_s

    def now(self):
        t = self.inner.now()
        offset = (t - self.inner.start).total_seconds()
        if self.lo <= offset < self.hi:
            return t - timedelta(minutes=5)
        return t

    def sleep(self, seconds):
        self.inner.sleep(seconds)

    def sleep_until(self, when):
        self.inner.sleep_until(when)


class TestDurations:
    def test_units(self):
        assert parse_duration("10s") == 10.0
        assert parse_duration("5m") == 300.0
        assert parse_duration("1h") == 3600.0
        assert parse_duration("2d") == 172800.0
        assert parse_duration("250ms") == 0.25
        assert parse_duration("90") == 90.0

    def test_garbage_rejected(self):
        with pytest.raises(DataError):
            parse_duration("soon")


class TestConfigFile:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "node.conf"
        path.write_text(
            "node_id=node-a\n"
            f"buffer_dir={tmp_path / 'buf'}\n"
            "sample_interval=10s\n"
            "video_chunk_len=5m\n"
            "video_fps=10\n"
            "frame_width=64\n"
            "frame_height=36\n"
            "retention=1h\n"
            "seed=7\n"
            "start_time=2022-07-01T16:00:00Z\n"
            "# a comment\n")
        config = parse_node_config(path)
        assert config.node_id == "node-a"
        assert config.sample_interval_s == 10.0
        assert config.video_chunk_len_s == 300
        assert config.start_time == T0
        assert config.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "node.conf"
        path.write_text("node_id=node-a\nbuffer_dir=/tmp/x\ncolor=blue\n")
        with pytest.raises(DataError):
            parse_node_config(path)

    def test_bad_node_id_rejected(self, tmp_path):
        with pytest.raises(DataError):
            NodeConfig(node_id="NODE!", buffer_dir=tmp_path)


class TestRetentionSweep:
    def test_confirmed_and_aged_deleted(self, tmp_path):
        f = tmp_path / "node-a_20220701_160000.fseq"
        f.write_bytes(b"data")
        write_marker(f, T0)
        deleted = retention_sweep(tmp_path, T0 + timedelta(seconds=101), retention_s=100)
        assert deleted == [f]
        assert not f.exists() and not marker_path(f).exists()

    def test_exact_retention_age_kept(self, tmp_path):
        f = tmp_path / "x.fseq"
        f.write_bytes(b"data")
        write_marker(f, T0)
        assert retention_sweep(tmp_path, T0 + timedelta(seconds=100), retention_s=100) == []
        assert f.exists()

    def test_unconfirmed_never_deleted(self, tmp_path):
        f = tmp_path / "x.fseq"
        f.write_bytes(b"data")
        deleted = retention_sweep(tmp_path, T0 + timedelta(days=365), retention_s=10)
        assert deleted == [] and f.exists()

    def test_empty_dir(self, tmp_path):
        assert retention_sweep(tmp_path, T0, retention_s=10) == []


class TestRestartScan:
    def test_sealed_unconfirmed_found(self, tmp_path):
        video = tmp_path / "node-a_20220701_160000.fseq"
        video.write_bytes(b"v")
        old_csv = tmp_path / "node-a_2022-06-30.csv"
        old_csv.write_text("row\n")
        today_csv = tmp_path / f"node-a_{T0.date().isoformat()}.csv"
        today_csv.write_text("row\n")
        part = tmp_path / "node-a_20220701_170000.fseq.part"
        part.write_bytes(b"p")
        confirmed = tmp_path / "node-a_20220701_150000.fseq"
        confirmed.write_bytes(b"v")
        write_marker(confirmed, T0)
        found = scan_unconfirmed(tmp_path, "node-a", today=T0.date())
        assert sorted(found) == sorted([(video, "video"), (old_csv, "csv")])


class TestRunNode:
    def test_one_hour_run(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=40000.0)
        config = make_config(tmp_path)
        store = make_store(clock, tmp_path)
        summary = run(config, clock, store, 3600)

        assert summary.chunks_sealed == 12
        assert summary.csvs_sealed == 1
        assert summary.uploads_enqueued == 13
        assert summary.uploads_confirmed == 13
        assert summary.uploads_failed == 0
        assert summary.samples_written == 360

        csv_path = config.buffer_dir / daily_csv_name("node-a", T0.date())
        rows = [ln for ln in csv_path.read_text().splitlines() if ln]
        assert len(rows) == 360
        samples = [parse_csv_row(r) for r in rows]
        deltas = {(b.timestamp - a.timestamp).total_seconds()
                  for a, b in zip(samples, samples[1:])}
        assert deltas == {10.0}

        objects = store.list_node_objects("node-a")
        assert len(objects) == 13
        chunk_keys = [o.key for o in objects if o.key.startswith("video/")]
        assert len(chunk_keys) == 12
        for obj in objects:
            local = config.buffer_dir / obj.key.split("/", 1)[1]
            assert store.download(BlobRef("node-a", obj.key)) == local.read_bytes()

    def test_zero_duration(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=1000.0)
        config = make_config(tmp_path)
        summary = run(config, clock, make_store(clock, tmp_path), 0)
        assert summary == SessionSummary()

    def test_midnight_rotation(self, tmp_path):
        start = datetime(2022, 7, 1, 23, 55, 0, tzinfo=UTC)
        clock = AcceleratedClock(start=start, accel=40000.0)
        config = make_config(tmp_path, start_time=start)
        store = make_store(clock, tmp_path)
        summary = run(config, clock, store, 1200)
        assert summary.csvs_sealed == 2
        assert summary.chunks_sealed == 4
        assert summary.uploads_confirmed == 6
        day1 = config.buffer_dir / daily_csv_name("node-a", start.date())
        day2 = config.buffer_dir / daily_csv_name("node-a", (start + timedelta(days=1)).date())
        assert len(day1.read_text().splitlines()) == 30
        assert len(day2.read_text().splitlines()) == 90

    def test_slow_store_does_not_disturb_cadence(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=7200.0)
        config = make_config(tmp_path)
        backend = SlowBackend(tmp_path / "store", clock, latency_s=900.0)  # 3x chunk length
        store = make_store(clock, tmp_path, backend)
        summary = run(config, clock, store, 900)
        assert summary.chunks_sealed == 3
        assert summary.uploads_confirmed == 4
        rows = (config.buffer_dir / daily_csv_name("node-a", T0.date())).read_text().splitlines()
        samples = [parse_csv_row(r) for r in rows if r]
        assert len(samples) == 90
        deltas = {(b.timestamp - a.timestamp).total_seconds()
                  for a, b in zip(samples, samples[1:])}
        assert deltas == {10.0}
        starts = sorted(o.key for o in store.list_node_objects("node-a")
                        if o.key.startswith("video/"))
        assert starts == [
            "video/node-a_20220701_160000.fseq",
            "video/node-a_20220701_160500.fseq",
            "video/node-a_20220701_161000.fseq",
        ]

    def test_failing_store_keeps_files(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=40000.0)
        config = make_config(tmp_path)
        store = make_store(clock, tmp_path, FlakyBackend(tmp_path / "store", fail_times=None))
        summary = run(config, clock, store, 600)
        assert summary.uploads_failed == summary.uploads_enqueued == 3
        assert summary.uploads_confirmed == 0
        leftovers = [p for p in config.buffer_dir.iterdir()
                     if not p.name.endswith(".uploaded")]
        assert len(leftovers) == 3
        # a sweep far in the future still refuses to delete unconfirmed buffers
        deleted = retention_sweep(config.buffer_dir, T0 + timedelta(days=3650),
                                  retention_s=config.retention_s)
        assert deleted == []

    def test_restart_rescans_and_dedupes(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=40000.0)
        config = make_config(tmp_path)
        failing = FlakyBackend(tmp_path / "store", fail_times=None)
        run(config, clock, make_store(clock, tmp_path, failing), 600)

        day2 = datetime(2022, 7, 2, 9, 0, 0, tzinfo=UTC)
        config2 = make_config(tmp_path, start_time=day2)
        clock2 = AcceleratedClock(start=day2, accel=40000.0)
        store2 = make_store(clock2, tmp_path)
        summary2 = run(config2, clock2, store2, 0)
        assert summary2.uploads_enqueued == 3
        assert summary2.uploads_confirmed == 3

        clock3 = AcceleratedClock(start=day2 + timedelta(hours=1), accel=40000.0)
        config3 = make_config(tmp_path, start_time=day2 + timedelta(hours=1))
        summary3 = run(config3, clock3, make_store(clock3, tmp_path), 0)
        assert summary3.uploads_enqueued == 0

    def test_bounded_queue_drops_and_recovers(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=36000.0)
        config = make_config(tmp_path)
        backend = SlowBackend(tmp_path / "store", clock, latency_s=6000.0)
        store = make_store(clock, tmp_path, backend)
        summary = run(config, clock, store, 1800, queue_capacity=1)
        total_jobs = summary.chunks_sealed + summary.csvs_sealed
        assert total_jobs == 7
        assert summary.uploads_dropped >= 3
        assert summary.uploads_enqueued + summary.uploads_dropped == total_jobs
        assert summary.uploads_confirmed == summary.uploads_enqueued

        day2 = datetime(2022, 7, 2, 9, 0, 0, tzinfo=UTC)
        config2 = make_config(tmp_path, start_time=day2)
        clock2 = AcceleratedClock(start=day2, accel=40000.0)
        summary2 = run(config2, clock2, make_store(clock2, tmp_path), 0)
        assert summary2.uploads_enqueued == summary.uploads_dropped
        assert summary2.uploads_confirmed == summary.uploads_dropped

    def test_clock_regression_drops_sample(self, tmp_path):
        # modest acceleration so the wall-clock window brackets exactly one
        # sample even when the loop lags a little behind schedule
        inner = AcceleratedClock(start=T0, accel=200.0)
        clock = BackwardsWindowClock(inner, 27.0, 38.0)
        config = make_config(tmp_path)
        summary = run_node(config, synthetic_sample_source(0),
                           fast_frame_source(64, 36),
                           make_store(inner, tmp_path), clock, timedelta(seconds=60))
        assert summary.samples_dropped == 1
        assert summary.samples_written == 5

    def test_unwritable_buffer_dir(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("this is a file, not a directory")
        clock = AcceleratedClock(start=T0, accel=1000.0)
        config = make_config(tmp_path, buffer_dir=target)
        with pytest.raises(BufferDirUnwritable):
            run(config, clock, make_store(clock, tmp_path), 10)

    def test_frame_shape_enforced(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=1000.0)
        config = make_config(tmp_path)
        with pytest.raises(DataError):
            run_node(config, synthetic_sample_source(0), fast_frame_source(32, 32),
                     make_store(clock, tmp_path), clock, timedelta(seconds=10))

    def test_loop_error_stops_upload_worker(self, tmp_path):
        before = set(threading.enumerate())
        clock = AcceleratedClock(start=T0, accel=1000.0)
        config = make_config(tmp_path, frame_width=8, frame_height=8)
        with pytest.raises(DataError):
            run_node(config, synthetic_sample_source(0), fast_frame_source(4, 4),
                     make_store(clock, tmp_path), clock, timedelta(seconds=10))
        assert set(threading.enumerate()) <= before

    def test_lagging_loop_sweeps_on_schedule(self, tmp_path, monkeypatch):
        calls = []

        def counting_sweep(*args):
            calls.append(args)
            return retention_sweep(*args)

        monkeypatch.setattr(node_pipeline, "retention_sweep", counting_sweep)
        clock = AcceleratedClock(start=T0, accel=1e6)  # the loop lags the clock
        config = make_config(tmp_path, video_chunk_len_s=5, retention_s=0.0)
        summary = run(config, clock, make_store(clock, tmp_path), 120)
        assert summary.chunks_sealed == 24
        assert len(calls) <= 120 / 5 + 1


def drain_within(worker, seconds):
    """Run ``worker.drain`` in a helper thread; True if it returned in time."""
    done = threading.Event()

    def target():
        worker.drain(timeout_s=seconds)
        done.set()

    threading.Thread(target=target, daemon=True).start()
    return done.wait(seconds + 5.0)


class TestUploadWorker:
    def start(self, tmp_path, backend, **kwargs):
        clock = AcceleratedClock(start=T0, accel=1000.0)
        store = make_store(clock, tmp_path, backend)
        store.ensure_node_container("node-a")
        paths = [tmp_path / name for name in ("a.fseq", "b.fseq")]
        for path in paths:
            path.write_bytes(b"frames")
        return UploadWorker(store, "node-a", **kwargs), paths

    def test_local_os_error_counts_as_failure_and_keeps_serving(self, tmp_path):
        # an OSError such as a full disk, raised below the retry layer
        worker, (first, second) = self.start(
            tmp_path, FlakyBackend(tmp_path / "store", fail_times=1, error=OSError))
        worker.enqueue(first, "video")
        worker.enqueue(second, "video")
        assert drain_within(worker, 5.0)
        assert (worker.failed, worker.confirmed) == (1, 1)
        assert read_marker(first) is None and first.exists()
        assert read_marker(second) is not None

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_drain_returns_when_thread_is_gone(self, tmp_path):
        backend = FlakyBackend(tmp_path / "store", fail_times=None, error=RuntimeError)
        worker, (first, second) = self.start(tmp_path, backend, capacity=1)
        worker.enqueue(first, "video")
        worker._thread.join(timeout=5.0)
        assert not worker._thread.is_alive()
        assert worker.enqueue(second, "video")  # the queue is now full
        assert drain_within(worker, 0.5)
