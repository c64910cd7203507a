"""FSEQ: the raw grayscale frame-sequence container.

Layout (little-endian): magic ``FSEQ1`` (5 bytes), width u16, height u16,
fps u8, frame_count u32, then frame_count frames of width*height unsigned
bytes, row-major, top-left origin. No per-frame headers, no compression.
"""
from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import AerotraceError, DataError
from .series import UTC

MAGIC = b"FSEQ1"
_HEADER = struct.Struct("<5sHHBI")
HEADER_SIZE = _HEADER.size
MAX_FRAME_COUNT = 0xFFFFFFFF  # the header's u32 frame_count

_CHUNK_NAME_RE = re.compile(r"^(?P<node>[a-z0-9-]{1,63})_(?P<stamp>\d{8}_\d{6})\.fseq$")


@dataclass(frozen=True)
class FseqInfo:
    width: int
    height: int
    fps: int
    frame_count: int

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height

    @property
    def payload_bytes(self) -> int:
        return self.frame_bytes * self.frame_count


def _check_frame(frame: np.ndarray, width: int, height: int) -> np.ndarray:
    arr = np.asarray(frame)
    if arr.dtype != np.uint8:
        raise DataError(f"frames must be uint8, got {arr.dtype}")
    if arr.shape != (height, width):
        raise DataError(f"frame shape {arr.shape} does not match {(height, width)}")
    return arr


class FseqWriter:
    """Streaming writer: frames are appended and the count is patched on close."""

    def __init__(self, path: str | Path, width: int, height: int, fps: int):
        if not (1 <= fps <= 255):
            raise DataError(f"fps={fps} outside u8 range")
        if not (1 <= width <= 0xFFFF and 1 <= height <= 0xFFFF):
            raise DataError(f"frame size {width}x{height} outside u16 range")
        self.path = Path(path)
        self.width = width
        self.height = height
        self.fps = fps
        self.count = 0
        self._fh = open(self.path, "wb")
        self._fh.write(_HEADER.pack(MAGIC, width, height, fps, 0))

    def add(self, frame: np.ndarray) -> None:
        arr = _check_frame(frame, self.width, self.height)
        if self.count >= MAX_FRAME_COUNT:
            raise DataError(f"{self.path}: the header cannot count more than "
                            f"{MAX_FRAME_COUNT} frames")
        self._fh.write(np.ascontiguousarray(arr))
        self.count += 1

    def close(self) -> int:
        self._fh.seek(0)
        self._fh.write(_HEADER.pack(MAGIC, self.width, self.height, self.fps, self.count))
        self._fh.flush()
        self._fh.close()
        expected = HEADER_SIZE + self.count * self.width * self.height
        actual = self.path.stat().st_size
        if actual != expected:
            raise AerotraceError(f"{self.path}: wrote {actual} bytes, expected {expected}")
        return self.count

    def abort(self) -> None:
        """Close the file as it stands, its header's frame count still 0."""
        self._fh.close()


def write_fseq(path: str | Path, frames: Iterable[np.ndarray], fps: int) -> FseqInfo:
    """Write frames one by one as they are iterated. They must share one
    uint8 (h, w) shape, taken from the first frame."""
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        raise DataError("cannot write a container with zero frames")
    height, width = np.asarray(first).shape
    writer = FseqWriter(path, width=width, height=height, fps=fps)
    writer.add(first)
    for f in frames:
        writer.add(f)
    count = writer.close()
    return FseqInfo(width=width, height=height, fps=fps, frame_count=count)


def read_fseq_info(path: str | Path) -> FseqInfo:
    path = Path(path)
    size = path.stat().st_size
    if size < HEADER_SIZE:
        raise DataError(f"{path}: {size} bytes is smaller than the header")
    with open(path, "rb") as fh:
        magic, width, height, fps, count = _HEADER.unpack(fh.read(HEADER_SIZE))
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if width < 1 or height < 1 or fps < 1:
        raise DataError(f"{path}: invalid dimensions {width}x{height}@{fps}")
    info = FseqInfo(width=width, height=height, fps=fps, frame_count=count)
    if size != HEADER_SIZE + info.payload_bytes:
        raise DataError(
            f"{path}: payload is {size - HEADER_SIZE} bytes, header implies {info.payload_bytes}"
        )
    return info


def iter_fseq_frames(path: str | Path) -> tuple[FseqInfo, Iterator[np.ndarray]]:
    """Return the header info and a generator yielding one (h, w) uint8 frame at a time."""
    info = read_fseq_info(path)

    def gen() -> Iterator[np.ndarray]:
        with open(path, "rb") as fh:
            fh.seek(HEADER_SIZE)
            for index in range(info.frame_count):
                raw = fh.read(info.frame_bytes)
                if len(raw) != info.frame_bytes:
                    raise DataError(
                        f"{path}: frame {index}: read {len(raw)} of {info.frame_bytes} bytes")
                yield np.frombuffer(raw, dtype=np.uint8).reshape(info.height, info.width)

    return info, gen()


def chunk_filename(node_id: str, start: datetime) -> str:
    return f"{node_id}_{start.strftime('%Y%m%d_%H%M%S')}.fseq"


def parse_chunk_start(name: str) -> datetime | None:
    """Recover the chunk start time from a ``<node>_YYYYMMDD_HHMMSS.fseq`` name;
    None for any other name, or one with an impossible time."""
    m = _CHUNK_NAME_RE.match(Path(name).name)
    if not m:
        return None
    try:
        return datetime.strptime(m.group("stamp"), "%Y%m%d_%H%M%S").replace(tzinfo=UTC)
    except ValueError:  # a well-formed name with an impossible time, such as 20221399
        return None
