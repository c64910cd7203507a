"""The node runtime.

One logical loop samples the sensor every ``sample_interval`` and appends
rows to a daily CSV; a second logical loop pulls camera frames and streams
them into five-minute FSEQ chunks aligned to the hour. Sealed files go to an
unbounded upload queue serviced by a single worker thread, so slow uploads
never stall sampling. A sealed file is deleted only after its upload was
confirmed and it has outlived the retention window; everything else stays on
disk. A buffer scan re-enqueues every sealed, unconfirmed file at start and
after each retention sweep, so a failed upload is retried within one chunk
length; a file still unconfirmed when the session ends waits for the next one.
The store may hold a sealed file as a hard link to its inode, so a queued file
is never written again: chunks are written under a ``.part`` name and sealed
by a rename, and a same-day restart gives today's CSV an inode of its own
before it appends.

Timestamps are scheduled, not measured: the k-th sample is stamped
start + k * interval regardless of scheduling jitter or a wall clock that
steps back, which keeps cadence exact under any clock acceleration. Retention
sweeps and upload times use scheduled time too: a sweep runs at its scheduled
time, and a file's upload time is the scheduled time at which it was queued.
The clock only paces the loop, so the files a session leaves do not depend
on the host's speed.
"""
from __future__ import annotations

import contextlib
import logging
import os
import queue
import re
import shutil
import threading
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

from .blob_store import BlobRef, BlobStore, UploadJob, validate_node_id
from .errors import AerotraceError, DataError
from .fseq import MAX_FRAME_COUNT, FseqWriter, chunk_filename, parse_chunk_start
from .sensor_codec import SensorSample, sample_to_csv_row
from .series import EPOCH, as_utc, decode_utf8, floor_to, format_utc, parse_utc

log = logging.getLogger(__name__)

MARKER_SUFFIX = ".uploaded"
PART_SUFFIX = ".part"

_DURATION_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(ms|s|m|h|d)?\s*$")
_DURATION_UNITS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, None: 1.0}

_CSV_NAME_RE = re.compile(r"^(?P<node>[a-z0-9-]{1,63})_(?P<day>\d{4}-\d{2}-\d{2})\.csv$")


def parse_duration(text: str) -> float:
    """Parse ``90``, ``10s``, ``5m``, ``1h``, ``2d`` (bare numbers are seconds)."""
    m = _DURATION_RE.match(text)
    if not m:
        raise DataError(f"cannot parse duration {text!r}")
    seconds = float(m.group(1)) * _DURATION_UNITS[m.group(2)]
    # The float nearest timedelta.max already overflows timedelta().
    if not seconds < timedelta.max.total_seconds():
        raise DataError(f"duration {text!r} is longer than {timedelta.max.days} days")
    return seconds


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
        object.__setattr__(self, "video_chunk_len_s", int(self.video_chunk_len_s))
        if not 1 <= self.video_fps <= 255:
            raise DataError("video_fps must be in [1, 255]")
        if self.video_chunk_len_s * self.video_fps > MAX_FRAME_COUNT:
            raise DataError(f"a {self.video_chunk_len_s} s chunk at {self.video_fps} fps "
                            f"needs more than {MAX_FRAME_COUNT} frames")
        if self.frame_width < 1 or self.frame_height < 1:
            raise DataError("frame dimensions must be positive")
        # The synthetic sources seed numpy with the seed and each epoch second,
        # which must not be negative.
        if self.seed < 0:
            raise DataError(f"seed={self.seed} must not be negative")
        if self.start_time is not None and self.start_time < EPOCH:
            raise DataError(f"start_time={format_utc(self.start_time)} is before "
                            f"{format_utc(EPOCH)}")


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
    text = decode_utf8(path, Path(path).read_bytes())
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    try:
        return NodeConfig(**values)
    except TypeError as exc:
        raise DataError(f"{path}: incomplete config: {exc}") from exc


def daily_csv_name(node_id: str, day: date) -> str:
    return f"{node_id}_{day.isoformat()}.csv"


def _parse_csv_name(name: str) -> tuple[str, date] | None:
    """The node id and day of a daily CSV file name, or None for any other name."""
    m = _CSV_NAME_RE.match(name)
    try:
        return (m.group("node"), date.fromisoformat(m.group("day"))) if m else None
    except ValueError:  # a well-formed name with an impossible date, such as 2022-13-45
        return None


def marker_path(path: Path) -> Path:
    return path.with_name(path.name + MARKER_SUFFIX)


def write_marker(path: Path, queued_at: datetime) -> None:
    """Mark ``path`` as stored, with the scheduled time it was queued at."""
    marker_path(path).write_text(f"confirmed_at={format_utc(queued_at)}\n")


def read_marker(path: Path) -> datetime | None:
    """The scheduled time a stored file was queued at, or None when the marker
    is missing or unreadable.

    A marker cut short mid-write counts as missing, so the file is uploaded
    again and gets a fresh marker.
    """
    mp = marker_path(path)
    if not mp.is_file():
        return None
    try:
        for line in mp.read_text().splitlines():
            if line.startswith("confirmed_at="):
                return parse_utc(line.split("=", 1)[1].strip())
    except ValueError as exc:
        log.warning("ignoring unreadable upload marker %s: %s", mp, exc)
    return None


def retention_sweep(buffer_dir: str | Path, now: datetime,
                    retention_s: float) -> list[Path]:
    """Delete confirmed files queued longer than the retention window before ``now``.

    Retention counts from the scheduled time a file was queued for upload.
    Files without a confirmation marker are never touched, whatever their
    age: local storage is the upload buffer. A daily CSV is also kept until
    ``now`` is past its UTC day, since a restart that day appends to it.
    Per-file delete failures are logged and left for the next sweep.
    """
    now = as_utc(now)
    deleted: list[Path] = []
    buffer_dir = Path(buffer_dir)
    if not buffer_dir.is_dir():
        return deleted
    for path in sorted(buffer_dir.iterdir()):
        if path.is_dir() or path.name.endswith(MARKER_SUFFIX) or path.name.endswith(PART_SUFFIX):
            continue
        queued_at = read_marker(path)
        csv = _parse_csv_name(path.name)
        if queued_at is None or (csv is not None and csv[1] >= now.date()):
            continue
        if (now - queued_at).total_seconds() > retention_s:
            try:
                path.unlink()
                marker_path(path).unlink(missing_ok=True)
                deleted.append(path)
            except OSError as exc:
                log.warning("retention sweep could not delete %s: %s", path, exc)
    return deleted


def scan_unconfirmed(buffer_dir: Path, node_id: str, today: date) -> list[Path]:
    """Sealed-but-unconfirmed files of node ``node_id`` to re-enqueue at start
    and after each sweep.

    A chunk of this node without a marker is sealed. A daily CSV of this node
    without a marker is sealed once its date is in the past; the current
    day's file may still be growing. Any other file is not this node's to
    upload.
    """
    found: list[Path] = []
    for path in sorted(buffer_dir.iterdir()):
        if path.is_dir() or read_marker(path) is not None:
            continue
        own = path.name.startswith(f"{node_id}_")  # a node id holds no "_"
        csv = _parse_csv_name(path.name)
        if own and (parse_chunk_start(path.name) is not None
                    or (csv is not None and csv[1] < today)):
            found.append(path)
    return found


def _blob_ref(node_id: str, path: Path) -> BlobRef:
    """Where a buffer file is stored: an ``.fseq`` file under ``video/``, any
    other file under ``csv/``."""
    kind = "video" if path.suffix == ".fseq" else "csv"
    return BlobRef(container=node_id, key=f"{kind}/{path.name}")


class UploadWorker:
    """Single consumer thread pushing sealed files into the blob store.

    ``enqueue`` never blocks and ignores a name that is queued, in flight or
    confirmed. The queue is unbounded: it holds paths, whose sealed files on
    disk bound its length. Each file goes to its ``_blob_ref``, and the store
    and its marker record the scheduled time ``at`` it was queued at. A failed
    upload, a local ``OSError`` included, is counted, leaves the file unmarked
    and forgets its name, so the next buffer scan enqueues it again.
    """

    def __init__(self, store: BlobStore, node_id: str):
        self.store = store
        self.node_id = node_id
        self.queue: queue.Queue = queue.Queue()
        self.enqueued = 0
        self.confirmed = 0
        self.failed = 0
        self._names: set[str] = set()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def enqueue(self, path: Path, at: datetime) -> bool:
        if path.name in self._names:
            return False
        # Add before the put: the worker forgets only names it has taken.
        self._names.add(path.name)
        self.queue.put((path, at))
        self.enqueued += 1
        return True

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            path, at = item
            job = UploadJob(blob=_blob_ref(self.node_id, path), local_path=path, uploaded_at=at)
            try:
                self.store.upload(job)
                write_marker(path, at)
            except (OSError, AerotraceError) as exc:
                self.failed += 1
                self._names.discard(path.name)
                log.error("upload of %s failed: %s", path, exc)
                continue
            self.confirmed += 1

    def drain(self, timeout_s: float = 600.0) -> None:
        """Finish queued uploads or raise after ``timeout_s``; a dead thread returns at once."""
        self.queue.put(None)
        self._thread.join(timeout=timeout_s)
        if self._thread.is_alive():
            raise AerotraceError("upload worker did not drain in time")


@dataclass
class SessionSummary:
    """Session counters. A file retried after a failure is enqueued again, so
    ``uploads_enqueued`` and ``uploads_failed`` count attempts, not files."""

    samples_written: int = 0
    chunks_sealed: int = 0
    csvs_sealed: int = 0
    uploads_enqueued: int = 0
    uploads_confirmed: int = 0
    uploads_failed: int = 0
    files_deleted: int = 0


def _last_stamp(path: Path) -> datetime | None:
    """The timestamp of a CSV's last line; None if there is none or it does not parse."""
    try:
        with open(path, "rb") as fh:
            fh.seek(max(fh.seek(0, os.SEEK_END) - 4096, 0))
            last = (fh.read().splitlines() or [b""])[-1]
        return parse_utc(last.split(b",")[0].decode("ascii"))
    except (FileNotFoundError, ValueError):
        return None


def _unshare(path: Path) -> None:
    """Give ``path`` an inode of its own if the store links to it, so that an
    append leaves the stored object as it is. The copy is renamed over the
    file, so a crash mid-copy leaves the file whole."""
    if not path.is_file() or path.stat().st_nlink == 1:
        return
    part = path.with_name(path.name + PART_SUFFIX)
    shutil.copyfile(path, part)
    part.replace(path)


class _CsvSink:
    """Appends rows to the current UTC day's CSV, rotating at midnight.

    Opening a day's file removes its upload marker: the rows appended after a
    same-day restart are not in the store yet, and the store may hold the file
    as a link, so it is unshared first. A restart whose first row is not later
    than the file's last one is a replay of an earlier schedule; it is refused
    before a byte is written. A last line whose timestamp does not parse, as a
    row torn inside it, is no reason to refuse.
    """

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
            path = self.buffer_dir / daily_csv_name(self.node_id, day)
            last = _last_stamp(path)
            if last is not None and sample.timestamp <= last:
                raise DataError(f"{path.name} ends at {format_utc(last)}; a replay of an "
                                f"earlier schedule would append {format_utc(sample.timestamp)}")
            _unshare(path)
            self.day, self.path = day, path
            self._fh = open(self.path, "a")
            marker_path(self.path).unlink(missing_ok=True)
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
    """Streams frames into hour-aligned fixed-length FSEQ chunks.

    A chunk whose window's name an earlier session already used, in the buffer
    or in the store, is named by its first frame's second, so a restart never
    overwrites one.
    """

    def __init__(self, config: NodeConfig, store: BlobStore):
        self.config = config
        self.store = store
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
            self.part_path = self._free_part_path(key, ts)
            self.writer = FseqWriter(self.part_path, width=self.config.frame_width,
                                     height=self.config.frame_height,
                                     fps=self.config.video_fps)
            self.chunk_start = key
        self.writer.add(frame)
        return sealed

    def _free_part_path(self, key: datetime, ts: datetime) -> Path:
        for start in (key, ts.replace(microsecond=0)):
            final = self.config.buffer_dir / chunk_filename(self.config.node_id, start)
            part = final.with_name(final.name + PART_SUFFIX)
            if not (any(p.exists() for p in (final, part, marker_path(final)))
                    or self.store.has(_blob_ref(self.config.node_id, final))):
                return part
        raise DataError(f"chunk {final.name} is already in the buffer or the store; a "
                        "replay of an earlier schedule would overwrite it")

    def abort(self) -> None:
        """Close the open chunk, if any, unsealed: it stays a ``.part``."""
        if self.writer is not None:
            self.writer.abort()
            self.writer = self.part_path = self.chunk_start = None

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
             duration: timedelta) -> SessionSummary:
    """Run one session from ``config.start_time``: sample, chunk, upload, sweep."""
    if config.start_time is None:
        raise DataError("run_node needs a start_time")
    buffer_dir = Path(config.buffer_dir)
    try:
        buffer_dir.mkdir(parents=True, exist_ok=True)
        probe = buffer_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise AerotraceError(f"{buffer_dir}: {exc}") from exc

    store.ensure_node_container(config.node_id)
    summary = SessionSummary()
    start = config.start_time
    sample_dt = timedelta(seconds=config.sample_interval_s)
    frame_dt = timedelta(microseconds=round(1e6 / config.video_fps))
    sweep_dt = timedelta(seconds=config.video_chunk_len_s)
    try:
        end = start + duration
        # Each cadence can step once past the end before the loop stops.
        end + max(sample_dt, frame_dt, sweep_dt)
    except OverflowError:
        raise DataError(f"a {duration} session from {format_utc(start)} and its next "
                        "sample, frame and sweep run past year 9999") from None
    worker = UploadWorker(store, config.node_id)

    def enqueue(sealed: Path | None, at: datetime) -> int:
        """Queue a file a sink sealed at ``at``; returns the number queued, 0 or 1."""
        if sealed is None:
            return 0
        worker.enqueue(sealed, at)
        return 1

    csv_sink = _CsvSink(config.node_id, buffer_dir)
    chunk_sink = _ChunkSink(config, store)

    def rescan(at: datetime) -> None:
        """Queue every sealed, unconfirmed file; the open CSV is not sealed yet."""
        for path in scan_unconfirmed(buffer_dir, config.node_id, today=at.date()):
            if path != csv_sink.path:
                worker.enqueue(path, at)

    rescan(start)
    next_sample = start
    next_frame = start
    next_sweep = start + sweep_dt

    with contextlib.ExitStack() as on_exit:
        # Also on a loop error, each runs, last first: an open chunk closes
        # unsealed as a .part, the CSV closes, and the worker finishes its
        # queue and its thread ends.
        on_exit.callback(worker.drain)
        on_exit.callback(csv_sink.seal)
        on_exit.callback(chunk_sink.abort)
        while True:
            t = min(next_sample, next_frame)
            if t >= end:
                break
            clock.sleep_until(t)
            if next_frame <= next_sample:
                frame = frame_source(t)
                if frame.shape != (config.frame_height, config.frame_width):
                    raise DataError(
                        f"frame source produced {frame.shape}, config says "
                        f"{(config.frame_height, config.frame_width)}")
                summary.chunks_sealed += enqueue(chunk_sink.add(t, frame), t)
                next_frame += frame_dt
            else:
                next_sample += sample_dt
                summary.csvs_sealed += enqueue(csv_sink.write(sample_source(t)), t)
                summary.samples_written += 1
            if t >= next_sweep:
                summary.files_deleted += len(
                    retention_sweep(buffer_dir, t, config.retention_s))
                rescan(t)
                next_sweep += sweep_dt

        summary.chunks_sealed += enqueue(chunk_sink.seal(), end)
        summary.csvs_sealed += enqueue(csv_sink.seal(), end)
    summary.uploads_enqueued = worker.enqueued
    summary.uploads_confirmed = worker.confirmed
    summary.uploads_failed = worker.failed
    summary.files_deleted += len(retention_sweep(buffer_dir, end, config.retention_s))
    return summary
