"""The node runtime.

One logical loop samples the sensor every ``sample_interval`` and appends
rows to a daily CSV; a second logical loop pulls camera frames and streams
them into five-minute FSEQ chunks aligned to the hour. Sealed files go to a
bounded upload queue serviced by a single worker thread, so slow uploads
never stall sampling. A sealed file is deleted only after its upload was
confirmed and it has outlived the retention window; everything else stays on
disk and is re-enqueued by the restart scan of the next run.

Timestamps are scheduled, not measured: the k-th sample is stamped
start + k * interval regardless of scheduling jitter, which keeps cadence
exact under any clock acceleration.
"""
from __future__ import annotations

import logging
import queue
import re
import threading
import time
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

from .blob_store import BlobRef, BlobStore, UploadJob, validate_node_id
from .errors import AerotraceError, DataError
from .fseq import FseqWriter, chunk_filename
from .sensor_codec import SensorSample, sample_to_csv_row
from .series import as_utc, floor_to, format_utc, parse_utc

log = logging.getLogger(__name__)

MARKER_SUFFIX = ".uploaded"
PART_SUFFIX = ".part"

_DURATION_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(ms|s|m|h|d)?\s*$")
_DURATION_UNITS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, None: 1.0}

_CSV_NAME_RE = re.compile(r"^(?P<node>[a-z0-9-]{1,63})_(?P<day>\d{4}-\d{2}-\d{2})\.csv$")


class BufferDirUnwritable(AerotraceError):
    pass


def parse_duration(text: str) -> float:
    """Parse ``90``, ``10s``, ``5m``, ``1h``, ``2d`` (bare numbers are seconds)."""
    m = _DURATION_RE.match(text)
    if not m:
        raise DataError(f"cannot parse duration {text!r}")
    return float(m.group(1)) * _DURATION_UNITS[m.group(2)]


@dataclass(frozen=True)
class NodeConfig:
    node_id: str
    buffer_dir: Path
    sample_interval_s: float = 10.0
    video_chunk_len_s: int = 300
    video_fps: int = 10
    frame_width: int = 1296
    frame_height: int = 730
    retention_s: float = 3600.0
    store_root: Path | None = None
    seed: int = 0
    start_time: datetime | None = None

    def __post_init__(self) -> None:
        validate_node_id(self.node_id)
        object.__setattr__(self, "buffer_dir", Path(self.buffer_dir))
        if self.sample_interval_s <= 0:
            raise DataError("sample_interval must be positive")
        # CSV timestamps carry whole seconds, so the schedule must too.
        if self.sample_interval_s != int(self.sample_interval_s):
            raise DataError("sample_interval must be a whole number of seconds")
        if self.video_chunk_len_s < 1 or self.video_chunk_len_s != int(self.video_chunk_len_s):
            raise DataError("video_chunk_len must be a positive whole number of seconds")
        if not 1 <= self.video_fps <= 255:
            raise DataError("video_fps must be in [1, 255]")
        if self.frame_width < 1 or self.frame_height < 1:
            raise DataError("frame dimensions must be positive")


CONFIG_KEYS = {
    "node_id": str,
    "buffer_dir": Path,
    "sample_interval": "duration",
    "video_chunk_len": "duration",
    "video_fps": int,
    "frame_width": int,
    "frame_height": int,
    "retention": "duration",
    "store_root": Path,
    "seed": int,
    "start_time": "timestamp",
}

_KEY_TO_FIELD = {
    "sample_interval": "sample_interval_s",
    "video_chunk_len": "video_chunk_len_s",
    "retention": "retention_s",
}


def parse_node_config(path: str | Path) -> NodeConfig:
    """Read a flat ``key=value`` config file; see CONFIG_KEYS for the schema."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, text = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        kind = CONFIG_KEYS[key]
        try:
            if kind == "duration":
                value: object = parse_duration(text)
            elif kind == "timestamp":
                value = parse_utc(text)
            else:
                value = kind(text)
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        values[_KEY_TO_FIELD.get(key, key)] = value
    if "video_chunk_len_s" in values:
        values["video_chunk_len_s"] = int(values["video_chunk_len_s"])
    try:
        return NodeConfig(**values)
    except TypeError as exc:
        raise DataError(f"{path}: incomplete config: {exc}") from exc


def daily_csv_name(node_id: str, day: date) -> str:
    return f"{node_id}_{day.isoformat()}.csv"


def marker_path(path: Path) -> Path:
    return path.with_name(path.name + MARKER_SUFFIX)


def write_marker(path: Path, confirmed_at: datetime) -> None:
    marker_path(path).write_text(f"confirmed_at={format_utc(confirmed_at)}\n")


def read_marker(path: Path) -> datetime | None:
    mp = marker_path(path)
    if not mp.is_file():
        return None
    for line in mp.read_text().splitlines():
        if line.startswith("confirmed_at="):
            return parse_utc(line.split("=", 1)[1].strip())
    return None


def retention_sweep(buffer_dir: str | Path, now: datetime,
                    retention_s: float) -> list[Path]:
    """Delete confirmed files older than the retention window.

    Files without a confirmation marker are never touched, whatever their
    age: local storage is the upload buffer. Per-file delete failures are
    logged and left for the next sweep.
    """
    now = as_utc(now)
    deleted: list[Path] = []
    buffer_dir = Path(buffer_dir)
    if not buffer_dir.is_dir():
        return deleted
    for path in sorted(buffer_dir.iterdir()):
        if path.is_dir() or path.name.endswith(MARKER_SUFFIX) or path.name.endswith(PART_SUFFIX):
            continue
        confirmed_at = read_marker(path)
        if confirmed_at is None:
            continue
        if (now - confirmed_at).total_seconds() > retention_s:
            try:
                path.unlink()
                marker_path(path).unlink(missing_ok=True)
                deleted.append(path)
            except OSError as exc:
                log.warning("retention sweep could not delete %s: %s", path, exc)
    return deleted


def scan_unconfirmed(buffer_dir: Path, node_id: str, today: date) -> list[tuple[Path, str]]:
    """Sealed-but-unconfirmed files to re-enqueue after a restart.

    Any ``.fseq`` without a marker is sealed. A daily CSV without a marker is
    sealed once its date is in the past; the current day's file may still be
    growing.
    """
    found: list[tuple[Path, str]] = []
    for path in sorted(buffer_dir.iterdir()):
        if path.is_dir() or read_marker(path) is not None:
            continue
        if path.suffix == ".fseq":
            found.append((path, "video"))
        else:
            m = _CSV_NAME_RE.match(path.name)
            if m and m.group("node") == node_id and date.fromisoformat(m.group("day")) < today:
                found.append((path, "csv"))
    return found


class UploadWorker:
    """Single consumer thread pushing sealed files into the blob store.

    ``enqueue`` never blocks: a full queue drops the attempt (the file stays
    on disk for the next restart scan) and duplicate names are ignored. A failed
    upload, a local ``OSError`` included, is counted and leaves the file unmarked.
    """

    def __init__(self, store: BlobStore, node_id: str, capacity: int = 64):
        self.store = store
        self.node_id = node_id
        self.queue: queue.Queue = queue.Queue(maxsize=capacity)
        self.enqueued = 0
        self.dropped = 0
        self.confirmed = 0
        self.failed = 0
        self._names: set[str] = set()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def enqueue(self, path: Path, kind: str) -> bool:
        if path.name in self._names:
            return False
        try:
            self.queue.put_nowait((path, kind))
        except queue.Full:
            self.dropped += 1
            log.error("upload queue full, dropping %s (kept on disk)", path)
            return False
        self._names.add(path.name)
        self.enqueued += 1
        return True

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            path, kind = item
            job = UploadJob(
                blob=BlobRef(container=self.node_id, key=f"{kind}/{path.name}"),
                local_path=path)
            try:
                self.store.upload(job)
                write_marker(path, job.confirmed_at)
            except (OSError, AerotraceError) as exc:
                self.failed += 1
                log.error("upload of %s failed: %s", path, exc)
                continue
            self.confirmed += 1

    def drain(self, timeout_s: float = 600.0) -> None:
        """Finish queued uploads or raise after ``timeout_s``; a dead thread returns at once."""
        deadline = time.monotonic() + timeout_s
        while self._thread.is_alive() and time.monotonic() < deadline:
            try:
                self.queue.put(None, timeout=0.05)
                break
            except queue.Full:
                continue
        self._thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._thread.is_alive():
            raise AerotraceError("upload worker did not drain in time")


@dataclass
class SessionSummary:
    samples_written: int = 0
    samples_dropped: int = 0
    chunks_sealed: int = 0
    csvs_sealed: int = 0
    uploads_enqueued: int = 0
    uploads_dropped: int = 0
    uploads_confirmed: int = 0
    uploads_failed: int = 0
    files_deleted: int = 0


class _CsvSink:
    """Appends rows to the current UTC day's CSV, rotating at midnight."""

    def __init__(self, node_id: str, buffer_dir: Path):
        self.node_id = node_id
        self.buffer_dir = buffer_dir
        self.day: date | None = None
        self.path: Path | None = None
        self._fh = None

    def write(self, sample: SensorSample) -> Path | None:
        """Write one row; returns the sealed previous file on day rotation."""
        sealed = None
        day = sample.timestamp.date()
        if day != self.day:
            sealed = self.seal()
            self.day = day
            self.path = self.buffer_dir / daily_csv_name(self.node_id, day)
            self._fh = open(self.path, "a")
        self._fh.write(sample_to_csv_row(sample) + "\n")
        return sealed

    def seal(self) -> Path | None:
        if self._fh is None:
            return None
        self._fh.close()
        self._fh = None
        path, self.path, self.day = self.path, None, None
        return path


class _ChunkSink:
    """Streams frames into hour-aligned fixed-length FSEQ chunks."""

    def __init__(self, config: NodeConfig):
        self.config = config
        self.writer: FseqWriter | None = None
        self.chunk_start: datetime | None = None
        self.part_path: Path | None = None

    def add(self, ts: datetime, frame: np.ndarray) -> Path | None:
        """Append a frame; returns the sealed previous chunk on a boundary."""
        sealed = None
        key = floor_to(ts, self.config.video_chunk_len_s)
        if self.writer is not None and key != self.chunk_start:
            sealed = self.seal()
        if self.writer is None:
            name = chunk_filename(self.config.node_id, key)
            self.part_path = self.config.buffer_dir / (name + PART_SUFFIX)
            self.writer = FseqWriter(self.part_path, width=self.config.frame_width,
                                     height=self.config.frame_height,
                                     fps=self.config.video_fps)
            self.chunk_start = key
        self.writer.add(frame)
        return sealed

    def seal(self) -> Path | None:
        if self.writer is None:
            return None
        self.writer.close()
        final = self.part_path.with_name(self.part_path.name[:-len(PART_SUFFIX)])
        self.part_path.replace(final)
        self.writer = None
        self.part_path = None
        self.chunk_start = None
        return final


def run_node(config: NodeConfig,
             sample_source: Callable[[datetime], SensorSample],
             frame_source: Callable[[datetime], np.ndarray],
             store: BlobStore,
             clock,
             duration: timedelta,
             queue_capacity: int = 64) -> SessionSummary:
    """Run one node session: sample, chunk, upload, sweep. Returns counters."""
    buffer_dir = Path(config.buffer_dir)
    try:
        buffer_dir.mkdir(parents=True, exist_ok=True)
        probe = buffer_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise BufferDirUnwritable(f"{buffer_dir}: {exc}") from exc

    store.ensure_node_container(config.node_id)
    summary = SessionSummary()
    # The schedule anchors on the configured start; the clock only paces it.
    # Lagging deadlines are simply caught up, so a start slightly behind the
    # clock is harmless and keeps sample timestamps on whole seconds.
    start = config.start_time or as_utc(clock.now()).replace(microsecond=0)
    end = start + duration
    worker = UploadWorker(store, config.node_id, capacity=queue_capacity)

    def enqueue(path: Path | None, kind: str) -> None:
        if path is None:
            return
        if kind == "csv":
            summary.csvs_sealed += 1
        else:
            summary.chunks_sealed += 1
        worker.enqueue(path, kind)

    for path, kind in scan_unconfirmed(buffer_dir, config.node_id, today=start.date()):
        worker.enqueue(path, kind)

    csv_sink = _CsvSink(config.node_id, buffer_dir)
    chunk_sink = _ChunkSink(config)
    sample_dt = timedelta(seconds=config.sample_interval_s)
    frame_dt = timedelta(microseconds=round(1e6 / config.video_fps))
    next_sample = start
    next_frame = start
    prev_wall: datetime | None = None
    sweep_dt = timedelta(seconds=config.video_chunk_len_s)
    next_sweep = start + sweep_dt

    try:
        while True:
            t = min(next_sample, next_frame)
            if t >= end:
                break
            clock.sleep_until(t)
            if next_frame <= next_sample:
                ts = next_frame
                frame = frame_source(ts)
                if frame.shape != (config.frame_height, config.frame_width):
                    raise DataError(
                        f"frame source produced {frame.shape}, config says "
                        f"{(config.frame_height, config.frame_width)}")
                enqueue(chunk_sink.add(ts, frame), "video")
                next_frame += frame_dt
            else:
                ts = next_sample
                next_sample += sample_dt
                wall = as_utc(clock.now())
                if prev_wall is not None and wall < prev_wall:
                    summary.samples_dropped += 1
                    log.warning("clock went backwards (%s < %s), dropping sample",
                                wall, prev_wall)
                    continue
                prev_wall = wall
                sample = sample_source(ts)
                enqueue(csv_sink.write(sample), "csv")
                summary.samples_written += 1
            if t >= next_sweep:
                summary.files_deleted += len(
                    retention_sweep(buffer_dir, clock.now(), config.retention_s))
                next_sweep += sweep_dt

        enqueue(chunk_sink.seal(), "video")
        enqueue(csv_sink.seal(), "csv")
    finally:
        # Also on a loop error: the worker finishes its queue and its thread ends.
        worker.drain()
    summary.uploads_enqueued = worker.enqueued
    summary.uploads_dropped = worker.dropped
    summary.uploads_confirmed = worker.confirmed
    summary.uploads_failed = worker.failed
    summary.files_deleted += len(
        retention_sweep(buffer_dir, clock.now(), config.retention_s))
    return summary
