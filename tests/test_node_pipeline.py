import dataclasses
import os
import re
import sys
import tempfile
import threading
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aerotrace import node_pipeline
from aerotrace.blob_store import BlobRef, BlobStore, UploadJob
from aerotrace.clocks import AcceleratedClock
from aerotrace.errors import AerotraceError, DataError
from aerotrace.fseq import HEADER_SIZE, chunk_filename, iter_fseq_frames, write_fseq
from aerotrace.node_pipeline import (
    NodeConfig, SessionSummary, UploadWorker, daily_csv_name,
    marker_path, parse_duration, parse_node_config, read_marker, retention_sweep,
    run_node, scan_unconfirmed, write_marker)
from aerotrace.sensor_codec import parse_csv_row
from aerotrace.synth import synthetic_sample_source

from conftest import FlakyStore

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


def make_store(tmp_path, cls=BlobStore, **kwargs):
    return cls(tmp_path / "store", **kwargs)


def run(config, clock, store, duration_s):
    return run_node(config, synthetic_sample_source(config.seed),
                    fast_frame_source(config.frame_width, config.frame_height),
                    store, clock, timedelta(seconds=duration_s))


class SlowStore(BlobStore):
    """Store whose uploads first ``sleep`` for ``latency_s``, on the run's clock."""

    def __init__(self, root, sleep, latency_s):
        super().__init__(root)
        self.sleep = sleep
        self.latency_s = latency_s

    def upload(self, job):
        self.sleep(self.latency_s)
        return super().upload(job)


class GatedStore(BlobStore):
    """Store whose uploads wait until ``gate`` is set."""

    def __init__(self, root, gate):
        super().__init__(root)
        self.gate = gate

    def upload(self, job):
        self.gate.wait(timeout=30.0)
        return super().upload(job)


class ScheduleClock:
    """Never waits. It has no ``now()``, so a session run on it shows that the
    node reads no time but its schedule."""

    def sleep_until(self, when):
        pass


class TestDurations:
    def test_units(self):
        assert parse_duration("10s") == 10.0
        assert parse_duration("5m") == 300.0
        assert parse_duration("1h") == 3600.0
        assert parse_duration("2d") == 172800.0
        assert parse_duration("250ms") == 0.25
        assert parse_duration("90") == 90.0
        assert timedelta(seconds=parse_duration("999999999d")) == timedelta(days=999999999)

    def test_garbage_rejected(self):
        with pytest.raises(DataError):
            parse_duration("soon")

    @pytest.mark.parametrize("text", ["999999999999999999999999999999d", "1000000000d",
                                      "86400000000000",
                                      pytest.param(f"1{'0' * 400}s", id="400-digit-s")])
    def test_longer_than_timedelta_rejected(self, text):
        with pytest.raises(DataError, match="longer than"):
            parse_duration(text)


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
        assert config.video_chunk_len_s == 300 and type(config.video_chunk_len_s) is int
        assert config.start_time == T0
        assert config.seed == 7

    @pytest.mark.parametrize("value", ["1.5s", "300.9"])
    def test_fractional_chunk_length_rejected(self, tmp_path, value):
        path = tmp_path / "node.conf"
        path.write_text(f"node_id=node-a\nbuffer_dir={tmp_path}\nvideo_chunk_len={value}\n")
        with pytest.raises(DataError, match="whole number of seconds"):
            parse_node_config(path)

    def test_chunk_frame_count_beyond_u32_rejected(self, tmp_path):
        # 255 fps for 16843009 s is exactly 0xFFFFFFFF frames, the FSEQ header's limit.
        NodeConfig(node_id="node-a", buffer_dir=tmp_path, video_chunk_len_s=16843009,
                   video_fps=255)
        with pytest.raises(DataError, match="frames"):
            NodeConfig(node_id="node-a", buffer_dir=tmp_path, video_chunk_len_s=16843010,
                       video_fps=255)

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

    def test_daily_csv_kept_until_its_day_ends(self, tmp_path):
        f = tmp_path / daily_csv_name("node-a", T0.date())
        f.write_text("row\n")
        write_marker(f, T0)
        last_second = datetime(2022, 7, 1, 23, 59, 59, tzinfo=UTC)
        assert retention_sweep(tmp_path, last_second, retention_s=0) == []
        assert retention_sweep(tmp_path, last_second + timedelta(seconds=1), retention_s=0) == [f]


class TestMarkers:
    def test_truncated_marker_is_uploaded_again(self, tmp_path, caplog):
        config = make_config(tmp_path)
        config.buffer_dir.mkdir()
        chunk = config.buffer_dir / "node-a_20220701_150000.fseq"
        chunk.write_bytes(b"v")
        marker_path(chunk).write_text("confirmed_at=2022-07-0")
        clock = ScheduleClock()
        summary = run(config, clock, make_store(tmp_path), 0)
        assert summary.uploads_confirmed == 1
        assert read_marker(chunk) == T0
        assert "unreadable upload marker" in caplog.text

    def test_reopened_daily_csv_loses_its_marker(self, tmp_path):
        f = tmp_path / daily_csv_name("node-a", T0.date())
        f.write_text("row\n")
        write_marker(f, T0)
        sink = node_pipeline._CsvSink("node-a", tmp_path)
        sink.write(synthetic_sample_source(0)(T0))
        assert sink.seal() == f
        assert read_marker(f) is None and len(f.read_text().splitlines()) == 2

    def test_torn_last_row_does_not_block_a_restart(self, tmp_path):
        # The last row was torn inside its timestamp, as by a crash mid-write.
        f = tmp_path / daily_csv_name("node-a", T0.date())
        f.write_text("2022-07-01T16:05:00Z,5,12,15,27.00,65.50,1008.25\n2022-07-01T16:0")
        sink = node_pipeline._CsvSink("node-a", tmp_path)
        sink.write(synthetic_sample_source(0)(T0))
        assert sink.seal() == f
        assert len(f.read_text().splitlines()) == 2

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.text(), st.text().map("confirmed_at=".__add__),
                     st.integers(0, 34).map(lambda n: "confirmed_at=2022-07-01T16:00:00Z\n"[:n])))
    def test_read_marker_never_raises(self, tmp_path, text):
        f = tmp_path / "x.fseq"
        marker_path(f).write_bytes(text.encode("utf-8", "surrogatepass"))
        confirmed_at = read_marker(f)
        assert confirmed_at is None or confirmed_at.tzinfo is not None


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
        assert sorted(found) == sorted([video, old_csv])

    def test_impossible_csv_date_ignored(self, tmp_path):
        (tmp_path / "node-a_2022-13-45.csv").write_text("row\n")
        assert scan_unconfirmed(tmp_path, "node-a", today=T0.date()) == []


class TestChunkSink:
    @pytest.mark.parametrize("suffix", ["", ".part", ".uploaded", "stored"])
    def test_taken_window_name_falls_back_to_the_first_frame_second(self, tmp_path, suffix):
        config = make_config(tmp_path)
        config.buffer_dir.mkdir()
        store = make_store(tmp_path)
        store.ensure_node_container("node-a")
        name = "node-a_20220701_160000.fseq"
        if suffix == "stored":  # uploaded, then deleted from the buffer
            earlier = tmp_path / name
            earlier.write_bytes(b"earlier session")
            store.upload(UploadJob(blob=BlobRef("node-a", f"video/{name}"), local_path=earlier,
                                   uploaded_at=T0))
        else:
            earlier = config.buffer_dir / (name + suffix)
            earlier.write_bytes(b"earlier session")
        sink = node_pipeline._ChunkSink(config, store)
        ts = T0 + timedelta(minutes=2, microseconds=100000)
        sink.add(ts, fast_frame_source(config.frame_width, config.frame_height)(ts))
        assert sink.seal().name == "node-a_20220701_160200.fseq"
        assert earlier.read_bytes() == b"earlier session"


class TestRunNode:
    def test_one_hour_run(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=40000.0)
        config = make_config(tmp_path)
        store = make_store(tmp_path)
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
            got = tmp_path / "got.bin"
            store.download(BlobRef("node-a", obj.key), got)
            assert got.read_bytes() == local.read_bytes()

    @pytest.mark.parametrize("chunk_s", [3598, 3599])
    def test_schedule_past_year_9999_rejected_before_the_loop(self, tmp_path, chunk_s):
        # The schedule runs to the end plus the longest step, here the sweep's:
        # 23:00:01 + 3598 s fits in year 9999, + 3599 s does not.
        late = datetime(9999, 12, 31, 23, 0, 0, tzinfo=UTC)
        config = make_config(tmp_path, start_time=late, video_chunk_len_s=chunk_s)
        clock = ScheduleClock()
        if chunk_s < 3599:
            assert run(config, clock, make_store(tmp_path), 1).samples_written == 1
            return
        with pytest.raises(DataError, match="past year 9999"):
            run(config, clock, make_store(tmp_path), 1)
        assert list(config.buffer_dir.iterdir()) == []

    def test_start_time_is_required(self, tmp_path):
        config = make_config(tmp_path, start_time=None)
        with pytest.raises(DataError, match="^run_node needs a start_time$"):
            run(config, ScheduleClock(), make_store(tmp_path), 10)
        assert not config.buffer_dir.exists()

    def test_zero_duration(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=1000.0)
        config = make_config(tmp_path)
        summary = run(config, clock, make_store(tmp_path), 0)
        assert summary == SessionSummary()

    def test_midnight_rotation(self, tmp_path):
        start = datetime(2022, 7, 1, 23, 55, 0, tzinfo=UTC)
        clock = AcceleratedClock(start=start, accel=40000.0)
        config = make_config(tmp_path, start_time=start)
        store = make_store(tmp_path)
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
        # Each upload takes 3 chunk lengths.
        store = make_store(tmp_path, SlowStore, sleep=clock.sleep, latency_s=900.0)
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
        store = make_store(tmp_path, FlakyStore, fail_times=None)
        summary = run(config, clock, store, 600)
        # Each sweep re-enqueues the files whose upload failed so far.
        assert summary.uploads_failed == summary.uploads_enqueued >= 3
        assert summary.uploads_confirmed == 0
        leftovers = [p for p in config.buffer_dir.iterdir()
                     if not p.name.endswith(".uploaded")]
        assert len(leftovers) == 3
        # a sweep far in the future still refuses to delete unconfirmed buffers
        deleted = retention_sweep(config.buffer_dir, T0 + timedelta(days=3650),
                                  retention_s=config.retention_s)
        assert deleted == []

    @pytest.mark.parametrize("accel", [None, 1e8], ids=["schedule", "accel-1e8"])
    def test_same_day_restart_keeps_both_sessions_rows(self, tmp_path, accel):
        """The second session appends to the first one's CSV; sweeps every 10 s
        must leave it on disk, and its upload must hold both sessions' rows,
        however far a fast clock runs ahead of the schedule."""
        for hour in (10, 11):
            start = datetime(2022, 7, 1, hour, tzinfo=UTC)
            clock = ScheduleClock() if accel is None else AcceleratedClock(start, accel)
            store = make_store(tmp_path)
            config = make_config(tmp_path, start_time=start, retention_s=0.0,
                                 video_chunk_len_s=10)
            assert run(config, clock, store, 60).uploads_failed == 0
        got = tmp_path / "got.csv"
        store.download(BlobRef("node-a", "csv/node-a_2022-07-01.csv"), got)
        hours = [parse_csv_row(row).timestamp.hour for row in got.read_text().splitlines()]
        assert hours == [10] * 6 + [11] * 6

    def test_a_same_day_append_leaves_the_stored_csv_as_it_was(self, tmp_path):
        """The store may hold the first session's CSV as a link to the buffer
        file. The second session appends to that file and all its uploads
        fail, so the stored object must still hold only the first session's rows."""
        config = make_config(tmp_path)
        assert run(config, ScheduleClock(), make_store(tmp_path), 60).uploads_failed == 0
        name = daily_csv_name("node-a", T0.date())
        stored = tmp_path / "store" / "node-a" / "csv" / name
        first = stored.read_bytes()
        later = dataclasses.replace(config, start_time=T0 + timedelta(minutes=2))
        failing = make_store(tmp_path, FlakyStore, fail_times=None)
        assert run(later, ScheduleClock(), failing, 60).uploads_confirmed == 0
        assert stored.read_bytes() == first
        assert len(first.splitlines()) == 6
        assert len((config.buffer_dir / name).read_bytes().splitlines()) == 12

    def test_restart_earlier_than_the_csv_rows_is_refused(self, tmp_path):
        """A session that starts before the daily CSV's last row raises before
        it writes a row or removes the file's upload marker."""
        store = make_store(tmp_path)
        config = make_config(tmp_path, frame_width=8, frame_height=8)
        assert run(config, AcceleratedClock(T0, 1e8), store, 301).uploads_failed == 0
        csv = config.buffer_dir / daily_csv_name("node-a", T0.date())
        before = csv.read_bytes()
        assert read_marker(csv) is not None
        replay = dataclasses.replace(config, start_time=T0 + timedelta(minutes=2, seconds=3))
        with pytest.raises(DataError, match="^node-a_2022-07-01.csv ends at "
                                            "2022-07-01T16:05:00Z; a replay"):
            run(replay, AcceleratedClock(replay.start_time, 1e8), store, 60)
        assert csv.read_bytes() == before
        assert read_marker(csv) is not None

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_a_refused_session_closes_its_open_chunk(self, tmp_path):
        """The replay opens a chunk for its first frame, then its first row is
        refused. The chunk is left as a ``.part`` of whole frames, and no file
        of the buffer stays open, even while the traceback holds the session."""
        store = make_store(tmp_path)
        config = make_config(tmp_path, frame_width=8, frame_height=8)
        run(config, AcceleratedClock(T0, 1e8), store, 301)
        replay = dataclasses.replace(config, start_time=T0 + timedelta(minutes=2, seconds=3))
        with pytest.raises(DataError, match="a replay") as refused:
            run(replay, AcceleratedClock(replay.start_time, 1e8), store, 60)
        assert refused.traceback  # the session's frames, and so its sinks, are still alive
        open_paths = set()
        for fd in Path("/proc/self/fd").iterdir():
            try:
                open_paths.add(Path(os.readlink(fd)))
            except OSError:  # the descriptor closed since the listing
                pass
        assert not [p for p in open_paths if p.parent == config.buffer_dir.resolve()]
        (part,) = config.buffer_dir.glob("*.part")
        assert part.name == "node-a_20220701_160203.fseq.part"
        assert part.stat().st_size == HEADER_SIZE + 8 * 8

    @settings(max_examples=25, deadline=None)
    @given(offset_s=st.integers(-90, 30), duration_s=st.integers(0, 60),
           chunk_s=st.sampled_from([1, 5, 60]), retention_s=st.sampled_from([0.0, 7.0, 86400.0]),
           interval_s=st.sampled_from([1, 10]))
    def test_a_fast_clock_leaves_what_the_schedule_leaves(self, offset_s, duration_s, chunk_s,
                                                          retention_s, interval_s):
        """A session paced by a clock far ahead of its schedule leaves the same
        buffer, markers included, and the same store listing, upload times
        included, as one that never waits. Sessions start near midnight."""
        start = datetime(2022, 7, 2, tzinfo=UTC) + timedelta(seconds=offset_s)
        end = start + timedelta(seconds=duration_s)
        left = []
        for clock in (ScheduleClock(), AcceleratedClock(start, accel=1e8)):
            with tempfile.TemporaryDirectory() as tmp:
                config = make_config(Path(tmp), start_time=start, video_chunk_len_s=chunk_s,
                                     retention_s=retention_s, sample_interval_s=interval_s,
                                     frame_width=8, frame_height=8)
                store = make_store(Path(tmp))
                run(config, clock, store, duration_s)
                left.append(({p.name: p.read_bytes() for p in config.buffer_dir.iterdir()},
                             store.list_node_objects("node-a")))
        assert left[0] == left[1]
        assert all(start <= obj.uploaded_at <= end for obj in left[0][1])

    def test_restart_rescans_and_dedupes(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=40000.0)
        config = make_config(tmp_path)
        run(config, clock, make_store(tmp_path, FlakyStore, fail_times=None), 600)

        day2 = datetime(2022, 7, 2, 9, 0, 0, tzinfo=UTC)
        config2 = make_config(tmp_path, start_time=day2)
        clock2 = AcceleratedClock(start=day2, accel=40000.0)
        store2 = make_store(tmp_path)
        summary2 = run(config2, clock2, store2, 0)
        assert summary2.uploads_enqueued == 3
        assert summary2.uploads_confirmed == 3

        clock3 = AcceleratedClock(start=day2 + timedelta(hours=1), accel=40000.0)
        config3 = make_config(tmp_path, start_time=day2 + timedelta(hours=1))
        summary3 = run(config3, clock3, make_store(tmp_path), 0)
        assert summary3.uploads_enqueued == 0

    def test_slow_store_confirms_every_file_in_the_same_session(self, tmp_path):
        # Each upload takes 20 chunk lengths, so the session's files wait in the queue.
        clock = AcceleratedClock(start=T0, accel=36000.0)
        config = make_config(tmp_path)
        store = make_store(tmp_path, SlowStore, sleep=clock.sleep, latency_s=6000.0)
        summary = run(config, clock, store, 1800)
        assert dataclasses.asdict(summary) == dict(
            samples_written=180, chunks_sealed=6, csvs_sealed=1,
            uploads_enqueued=7, uploads_confirmed=7, uploads_failed=0, files_deleted=0)
        assert len(store.list_node_objects("node-a")) == 7
        sealed = [p for p in config.buffer_dir.iterdir() if not p.name.endswith(".uploaded")]
        assert len(sealed) == 7 and all(read_marker(p) is not None for p in sealed)

    def test_restart_backlog_larger_than_64_confirms_in_the_first_session(self, tmp_path):
        """100 sealed chunks of an earlier day are all queued at start, while
        the store still holds its first put, and all upload in that session."""
        config = make_config(tmp_path)
        config.buffer_dir.mkdir()
        frame = np.zeros((config.frame_height, config.frame_width), dtype=np.uint8)
        day1 = T0 - timedelta(days=1)
        backlog = [config.buffer_dir / chunk_filename("node-a", day1 + timedelta(seconds=5 * i))
                   for i in range(100)]
        for path in backlog:
            write_fseq(path, [frame], fps=config.video_fps)
        gate = threading.Event()
        frames = fast_frame_source(config.frame_width, config.frame_height)

        def frame_source(ts):
            gate.set()  # the restart scan has enqueued the whole backlog by now
            return frames(ts)

        clock = ScheduleClock()
        store = make_store(tmp_path, GatedStore, gate=gate)
        summary = run_node(config, synthetic_sample_source(0), frame_source, store, clock,
                           timedelta(seconds=10))
        assert summary.uploads_enqueued == summary.uploads_confirmed == 102
        assert all(read_marker(path) is not None for path in backlog)
        assert len(store.list_node_objects("node-a")) == 102

    def test_failed_upload_is_retried_in_the_same_session(self, tmp_path):
        """The first put fails; a later sweep re-enqueues that chunk, and every
        sealed file is confirmed before the session ends."""
        second_put = threading.Event()

        class FailsFirst(FlakyStore):
            def upload(self, job):
                try:
                    return super().upload(job)
                finally:
                    if self.put_attempts >= 2:
                        second_put.set()

        frames = fast_frame_source(64, 36)

        def frame_source(ts):
            if ts > T0 + timedelta(seconds=10):
                # The worker takes the second file only after it handled the first.
                assert second_put.wait(timeout=30.0)
            return frames(ts)

        config = make_config(tmp_path, video_chunk_len_s=5)
        clock = ScheduleClock()
        summary = run_node(config, synthetic_sample_source(0), frame_source,
                           make_store(tmp_path, FailsFirst, fail_times=1), clock,
                           timedelta(seconds=30))
        assert dataclasses.asdict(summary) == dict(
            samples_written=3, chunks_sealed=6, csvs_sealed=1,
            uploads_enqueued=8, uploads_confirmed=7, uploads_failed=1, files_deleted=0)
        sealed = [p for p in config.buffer_dir.iterdir() if not p.name.endswith(".uploaded")]
        assert len(sealed) == 7 and all(read_marker(p) is not None for p in sealed)

    def test_sweep_after_midnight_leaves_the_open_csv_alone(self, tmp_path, monkeypatch):
        """The sweep at 00:00:00 runs before the new day's first sample, while the
        old day's CSV is still open; only its seal may enqueue it."""
        sizes = {}

        class RecordingWorker(UploadWorker):
            def enqueue(self, path, at):
                size = path.stat().st_size
                queued = super().enqueue(path, at)
                if queued and path.suffix == ".csv":
                    sizes.setdefault(path.name, []).append(size)
                return queued

        monkeypatch.setattr(node_pipeline, "UploadWorker", RecordingWorker)
        start = datetime(2022, 7, 1, 23, 59, 55, tzinfo=UTC)
        clock = ScheduleClock()
        config = make_config(tmp_path, start_time=start, video_chunk_len_s=5)
        summary = run(config, clock, make_store(tmp_path), 20)
        assert summary.uploads_confirmed == summary.uploads_enqueued == 6
        day1 = config.buffer_dir / daily_csv_name("node-a", start.date())
        assert sizes[day1.name] == [day1.stat().st_size]

    # The first session runs past the end of its chunk, so with retention 0 its
    # final sweep deletes that chunk and marker from the buffer before the
    # second session, started inside the same window, opens it. One sample an
    # hour keeps the first session's last CSV row before the second's start.
    @pytest.mark.parametrize("retention_s", [86400.0, 0.0], ids=["kept", "swept"])
    def test_restart_in_the_same_chunk_window_keeps_both_sessions_frames(self, tmp_path,
                                                                        retention_s):
        # (start, duration, files confirmed, frames in its first chunk): the
        # first session confirms its 160000 and 160500 chunks and its CSV.
        sessions = [(T0, 301, 3, 3000), (T0 + timedelta(minutes=2), 60, 2, 600)]
        for start, duration_s, confirmed, _ in sessions:
            clock = ScheduleClock()
            store = make_store(tmp_path)
            config = make_config(tmp_path, start_time=start, frame_width=32, frame_height=16,
                                 retention_s=retention_s, sample_interval_s=3600.0)
            assert run(config, clock, store, duration_s).uploads_confirmed == confirmed
        store.download(BlobRef("node-a", "csv/node-a_2022-07-01.csv"), tmp_path / "got.csv")
        assert [parse_csv_row(row).timestamp for row in
                (tmp_path / "got.csv").read_text().splitlines()] == [s for s, *_ in sessions]
        names = ["node-a_20220701_160000.fseq", "node-a_20220701_160200.fseq"]
        assert sorted(o.key for o in store.list_node_objects("node-a")
                      if o.key.startswith("video/")) == [
            f"video/{n}" for n in [*names, "node-a_20220701_160500.fseq"]]
        # The second session's chunk is queued at its end, so it is 0 s old at
        # the final sweep and stays either way.
        assert (config.buffer_dir / names[0]).exists() == bool(retention_s)
        assert (config.buffer_dir / names[1]).exists()
        for name, (start, _, _, frame_count) in zip(names, sessions):
            got = tmp_path / "got.fseq"
            store.download(BlobRef("node-a", f"video/{name}"), got)
            if (config.buffer_dir / name).exists():
                assert got.read_bytes() == (config.buffer_dir / name).read_bytes()
            info, frames = iter_fseq_frames(got)
            assert info.frame_count == frame_count
            assert next(frames)[0, 0] == int(start.timestamp()) % 256

        # A replay of the second session finds both names taken.
        before = sorted(config.buffer_dir.iterdir())
        clock = ScheduleClock()
        with pytest.raises(DataError, match="already in the buffer or the store"):
            run(config, clock, make_store(tmp_path), 60)
        assert sorted(config.buffer_dir.iterdir()) == before

    def test_unwritable_buffer_dir(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("this is a file, not a directory")
        clock = AcceleratedClock(start=T0, accel=1000.0)
        config = make_config(tmp_path, buffer_dir=target)
        with pytest.raises(AerotraceError, match=f"^{re.escape(str(target))}: ") as exc:
            run(config, clock, make_store(tmp_path), 10)
        assert type(exc.value) is AerotraceError

    def test_frame_shape_enforced(self, tmp_path):
        clock = AcceleratedClock(start=T0, accel=1000.0)
        config = make_config(tmp_path)
        with pytest.raises(DataError):
            run_node(config, synthetic_sample_source(0), fast_frame_source(32, 32),
                     make_store(tmp_path), clock, timedelta(seconds=10))

    def test_loop_error_stops_upload_worker(self, tmp_path):
        before = set(threading.enumerate())
        clock = AcceleratedClock(start=T0, accel=1000.0)
        config = make_config(tmp_path, frame_width=8, frame_height=8)
        with pytest.raises(DataError):
            run_node(config, synthetic_sample_source(0), fast_frame_source(4, 4),
                     make_store(tmp_path), clock, timedelta(seconds=10))
        assert set(threading.enumerate()) <= before

    def test_lagging_loop_sweeps_on_schedule(self, tmp_path, monkeypatch):
        calls = []

        def counting_sweep(*args):
            calls.append(args)
            return retention_sweep(*args)

        monkeypatch.setattr(node_pipeline, "retention_sweep", counting_sweep)
        clock = AcceleratedClock(start=T0, accel=1e6)  # the loop lags the clock
        config = make_config(tmp_path, video_chunk_len_s=5, retention_s=0.0)
        summary = run(config, clock, make_store(tmp_path), 120)
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
    def start(self, tmp_path, **flaky):
        store = make_store(tmp_path, FlakyStore, **flaky)
        store.ensure_node_container("node-a")
        paths = [tmp_path / name for name in ("a.fseq", "b.fseq")]
        for path in paths:
            path.write_bytes(b"frames")
        return UploadWorker(store, "node-a"), paths

    def test_local_os_error_counts_as_failure_and_keeps_serving(self, tmp_path):
        # an OSError such as a full disk, raised by the store's copy
        worker, (first, second) = self.start(tmp_path, fail_times=1, error=OSError)
        worker.enqueue(first, T0)
        worker.enqueue(second, T0)
        assert drain_within(worker, 5.0)
        assert (worker.failed, worker.confirmed) == (1, 1)
        assert read_marker(first) is None and first.exists()
        assert read_marker(second) is not None
        # The failed name is forgotten, so a later scan can enqueue it again.
        assert worker.enqueue(first, T0) and not worker.enqueue(second, T0)

    def test_rescans_during_failures_confirm_every_file_once(self, tmp_path):
        """Every other put fails while the main thread keeps rescanning, with
        thread switches as frequent as the interpreter allows: every file is
        confirmed exactly once and none is stranded by a name left behind."""

        class EveryOtherFails(FlakyStore):
            def _should_fail(self):
                return self.put_attempts % 2 == 1

        store = make_store(tmp_path, EveryOtherFails)
        store.ensure_node_container("node-a")
        paths = [tmp_path / f"{i:03d}.fseq" for i in range(60)]
        for path in paths:
            path.write_bytes(b"frames")
        worker = UploadWorker(store, "node-a")
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                pending = [p for p in paths if read_marker(p) is None]
                if not pending:
                    break
                for path in pending:
                    worker.enqueue(path, T0)
        finally:
            sys.setswitchinterval(switch)
        assert drain_within(worker, 5.0)
        assert all(read_marker(p) is not None for p in paths)
        assert worker.confirmed == len(paths)
        assert worker.enqueued == worker.confirmed + worker.failed

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_drain_returns_when_thread_is_gone(self, tmp_path):
        worker, (first, second) = self.start(tmp_path, fail_times=None, error=RuntimeError)
        worker.enqueue(first, T0)
        worker._thread.join(timeout=5.0)
        assert not worker._thread.is_alive()
        assert worker.enqueue(second, T0)  # no thread will take it
        assert drain_within(worker, 0.5)
