"""Vehicle counting over grayscale frame sequences.

Pipeline: per-pixel stability-counting background subtraction produces a
foreground mask; 8-connected components become detections (tight box +
center); a constant-velocity Kalman tracker with IOU-gated Hungarian
association follows each object; a track is counted, at most once per
direction, when the chord from its last center off the virtual counting line
to its newest center properly crosses the line. It keeps only those two points.
Where no detection overlaps two predicted boxes and no predicted box two
detections, the overlapping pairs are the assignment, and no solve runs.

The tracker stacks the Kalman states of its live tracks, one row per track
in track order, so each frame costs one predict over every track and one
update, with one linear solve, over the matched tracks.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .assignment import TIE_TOL, hungarian
from .errors import AerotraceError, DataError
from .fseq import iter_fseq_frames, parse_chunk_start
from .series import HOUR_S, UTC, floor_to, format_utc

log = logging.getLogger(__name__)

DIR_UP = 1
DIR_DOWN = -1


@dataclass(frozen=True)
class CountParams:
    pixel_threshold: int = 16
    min_stability: int = 15
    min_area: int = 150
    iou_gate: float = 0.3
    max_age: int = 5
    min_hits: int = 3


# ---------------------------------------------------------------------------
# Background subtraction

# Bytes of one uint8 plane per strip. The eleven planes a strip touches (frame,
# state, scratch and mask) then come to 1.4 MiB and stay in a 2 MiB L2 cache.
_STRIP_BYTES = 128 << 10


def _abs_diff(a: np.ndarray, b: np.ndarray, out: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``|a - b|`` into ``out`` without leaving uint8: max minus min."""
    np.maximum(a, b, out=out)
    np.minimum(a, b, out=low)
    return np.subtract(out, low, out=out)


class BackgroundModel:
    """Stability-counting subtractor.

    Per pixel: an intensity within ``pixel_threshold`` of the running
    candidate increments its stability counter, anything else restarts the
    candidate; once a candidate has stayed stable for ``min_stability``
    frames it is promoted to background. Foreground is any pixel deviating
    from a defined background by more than the threshold. A global
    illumination step therefore floods the mask until the new level has
    proven stable.

    ``update`` takes uint8 frames and works in place on uint8 ``candidate``
    and ``background`` arrays and preallocated scratch buffers; only the
    returned mask is a new array. Every pixel's update reads only that
    pixel, so it runs one horizontal strip of ``_STRIP_BYTES // width`` rows
    at a time, and the scratch buffers hold one strip. The uint8
    ``stability`` counter saturates at ``min_stability`` (1 to 255), since
    every decision reads it only as ``>= min_stability``. ``background`` is
    written only where a pixel is newly promoted: a promoted pixel that
    stays stable keeps its candidate, which already equals its background.

    A strip is settled when every counter in it equals ``min_stability``
    after its last update. A settled strip whose frame rows are all within
    the threshold of their candidates is skipped: its mask rows are set
    False and no state plane is written. This is exact: a counter reaches
    ``min_stability`` only by a promotion, so a saturated pixel has a
    background equal to its candidate, and a frame within the threshold of
    that neither changes its state nor makes it foreground. Any other strip
    takes the full update, which settles it again.
    """

    def __init__(self, width: int, height: int,
                 pixel_threshold: int = 16, min_stability: int = 15):
        self.width = width
        self.height = height
        self.pixel_threshold = int(pixel_threshold)
        self.min_stability = int(min_stability)
        if not 1 <= self.min_stability <= 255:
            raise DataError(f"min_stability must be 1 to 255, got {min_stability}")
        shape = (height, width)
        self.candidate = np.zeros(shape, dtype=np.uint8)
        self.stability = np.zeros(shape, dtype=np.uint8)
        self.background = np.zeros(shape, dtype=np.uint8)
        self.has_background = np.zeros(shape, dtype=bool)
        self._strip_rows = max(1, _STRIP_BYTES // width)
        strip = (min(self._strip_rows, height), width)
        self._diff = np.empty(strip, dtype=np.uint8)
        self._low = np.empty(strip, dtype=np.uint8)
        self._unstable = np.empty(strip, dtype=bool)
        self._grow = np.empty(strip, dtype=bool)
        self._select = np.empty(strip, dtype=bool)
        self._settled = [False] * -(-height // self._strip_rows)
        self._primed = False
        self._full = False  # has_background.all(), which never turns false again

    def update(self, frame: np.ndarray) -> np.ndarray:
        if frame.shape != (self.height, self.width):
            raise DataError(
                f"frame is {frame.shape}, model expects {(self.height, self.width)}")
        if frame.dtype != np.uint8:
            raise DataError(f"frames must be uint8, got {frame.dtype}")
        if not self._primed:
            np.copyto(self.candidate, frame)
            self._primed = True
        mask = np.empty(frame.shape, dtype=bool)
        # ``_full`` changes only between frames: a model that fills during this
        # frame still ands each strip's mask with its updated has_background,
        # which is then all True.
        for i, y in enumerate(range(0, self.height, self._strip_rows)):
            rows = slice(y, y + self._strip_rows)
            self._settled[i] = self._update_strip(
                self._settled[i], frame[rows], self.candidate[rows], self.stability[rows],
                self.background[rows], self.has_background[rows], mask[rows])
        if not self._full:
            self._full = bool(self.has_background.all())
        return mask

    def _update_strip(self, settled, f, c, s, bg, has_bg, mask) -> bool:
        """One strip of ``update``: every array is the same rows of a plane.
        Returns whether the strip is settled afterwards."""
        n = len(f)
        diff, low = self._diff[:n], self._low[:n]
        unstable, grow, select = self._unstable[:n], self._grow[:n], self._select[:n]
        np.greater(_abs_diff(f, c, diff, low), self.pixel_threshold, out=unstable)
        if settled and not unstable.any():
            mask[...] = False
            return True
        np.less(s, self.min_stability, out=grow)
        s += grow.view(np.uint8)
        np.copyto(s, 0, where=unstable)
        np.copyto(c, f, where=unstable)
        np.equal(s, self.min_stability, out=select)
        settled = bool(select.all())
        np.logical_and(select, grow, out=select)
        np.copyto(bg, c, where=select)
        np.greater(_abs_diff(f, bg, diff, low), self.pixel_threshold, out=mask)
        if not self._full:
            has_bg |= select
            np.logical_and(mask, has_bg, out=mask)
        return settled


# ---------------------------------------------------------------------------
# Detections

@dataclass(frozen=True)
class Detection:
    """Tight bounding box (x, y, w, h) and component pixel count."""

    box: tuple[int, int, int, int]
    area: int

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.box
        return (x + (w - 1) / 2.0, y + (h - 1) / 2.0)


def _components(start: np.ndarray, end: np.ndarray, stride: int) -> tuple[np.ndarray, ...]:
    """8-connected components of the runs ``[start, end)``, given as flat
    indices into a raster of row length ``stride`` that has a False pixel at
    the end of each row, in raster order.

    A run of the row above touches run i if its columns overlap i's widened
    by one on each side; those runs are consecutive, and two ``searchsorted``
    calls find them. Each link hooks the larger of its two roots to the
    smaller, and pointer jumping flattens the trees, until every link joins
    one root. A root is thus its component's first run.

    Returns the left, top, right and bottom edges (right and bottom
    exclusive) and the pixel count of each component, in raster order of
    its first pixel.
    """
    lo = np.searchsorted(end, start - stride)
    hi = np.searchsorted(start, end - stride, side="right")
    n_links = hi - lo
    run = np.repeat(np.arange(start.size), n_links)
    above = np.arange(run.size) + np.repeat(lo - (np.cumsum(n_links) - n_links), n_links)
    root = np.arange(start.size)
    while run.size:
        low = np.minimum(root[run], root[above])
        np.minimum.at(root, root[run], low)
        np.minimum.at(root, root[above], low)
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        split = root[run] != root[above]
        run, above = run[split], above[split]
    heads = np.flatnonzero(root == np.arange(start.size))
    comp = np.searchsorted(heads, root)
    row = start // stride
    x0, x1 = start - row * stride, end - row * stride
    left = np.full(heads.size, stride)
    np.minimum.at(left, comp, x0)
    right = np.zeros(heads.size, dtype=np.intp)
    np.maximum.at(right, comp, x1)
    bottom = np.zeros(heads.size, dtype=np.intp)
    np.maximum.at(bottom, comp, row + 1)
    return left, row[heads], right, bottom, np.bincount(comp, weights=x1 - x0)


def extract_detections(mask: np.ndarray, min_area: int = 150) -> list[Detection]:
    """8-connected components with at least ``min_area`` pixels, top-left order.

    Run-based labelling (He, Ren, Gao et al., Pattern Recognition 70, 2017)
    that reads only the rows holding a mask pixel: the changes between
    neighbouring pixels of those rows, with each row's first and last pixel
    as changes from the False beyond it, give every run's start and end,
    which then carry their frame row, so runs two rows apart never join.
    ``_components`` merges the runs; components come out in the raster order
    of their first pixel, which breaks the ties of the final sort.
    """
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return []
    stride = mask.shape[1] + 1
    band = mask[rows]
    edges = np.empty((rows.size, stride), dtype=bool)
    edges[:, 0], edges[:, -1] = band[:, 0], band[:, -1]
    np.not_equal(band[:, 1:], band[:, :-1], out=edges[:, 1:-1])
    edges = np.flatnonzero(edges)
    packed_row = edges // stride
    edges += (rows[packed_row] - packed_row) * stride
    dets = [Detection(box=(left, top, right - left, bottom - top), area=int(area))
            for left, top, right, bottom, area in zip(
                *(a.tolist() for a in _components(edges[0::2], edges[1::2], stride)))
            if area >= min_area]
    dets.sort(key=lambda d: (d.box[1], d.box[0], d.box[3], d.box[2]))
    return dets


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of every (x, y, w, h) row of ``a`` with every row
    of ``b``, shape (len(a), len(b)); 0 where disjoint or the union is not
    positive. Rounds as the scalar ``(aw*ah + bw*bh) - inter`` form does, and
    ``fmin``/``fmax`` keep the ``a`` edge where a ``b`` edge is NaN, as Python's
    ``min``/``max`` with ``a`` first do.
    """
    ax, ay, aw, ah = a.T[:, :, None]
    bx, by, bw, bh = b.T
    ix = np.maximum(0.0, np.fmin(ax + aw, bx + bw) - np.fmax(ax, bx))
    iy = np.maximum(0.0, np.fmin(ay + ah, by + bh) - np.fmax(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


# ---------------------------------------------------------------------------
# Kalman filter (constant-velocity model on center/area/aspect)

# State: (cx, cy, s, r, v_cx, v_cy, v_s); measurement: (cx, cy, s, r)
F_MAT = np.eye(7)
F_MAT[0, 4] = F_MAT[1, 5] = F_MAT[2, 6] = 1.0
H_MAT = np.eye(4, 7)
R_MAT = np.diag([1.0, 1.0, 10.0, 10.0])
P0_MAT = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4])
Q_MAT = np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4])


def kf_predict(x: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict one state, or a stack of states along the leading axis."""
    x2 = x @ F_MAT.T
    P2 = F_MAT @ P @ F_MAT.T + Q_MAT
    return x2, (P2 + P2.swapaxes(-1, -2)) / 2.0


def kf_update(x: np.ndarray, P: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Update one state, or a stack of states along the leading axis, with one solve."""
    y = z - x @ H_MAT.T
    HP = H_MAT @ P
    K = np.linalg.solve(HP @ H_MAT.T + R_MAT, HP).swapaxes(-1, -2)  # P H' S^-1; P, S symmetric
    x2 = x + (K @ y[..., None])[..., 0]
    ikh = np.eye(x.shape[-1]) - K @ H_MAT
    P2 = ikh @ P @ ikh.swapaxes(-1, -2) + K @ R_MAT @ K.swapaxes(-1, -2)  # Joseph form keeps P PSD
    return x2, (P2 + P2.swapaxes(-1, -2)) / 2.0


def states_from_boxes(boxes: np.ndarray) -> np.ndarray:
    """Zero-velocity state rows (cx, cy, s, r, 0, 0, 0) from (x, y, w, h) rows."""
    w, h = boxes[:, 2], boxes[:, 3]
    states = np.zeros((len(boxes), 7))
    states[:, :2] = boxes[:, :2] + (boxes[:, 2:] - 1) / 2.0
    states[:, 2], states[:, 3] = w * h, w / h
    return states


def boxes_from_states(x: np.ndarray) -> np.ndarray:
    """(x, y, w, h) rows from state rows, with area and aspect floored at 1e-6."""
    s = np.maximum(x[:, 2], 1e-6)
    box = np.empty((len(x), 4))
    box[:, 2] = w = np.sqrt(s * np.maximum(x[:, 3], 1e-6))
    box[:, 3] = s / w
    box[:, :2] = x[:, :2] - (box[:, 2:] - 1) / 2.0
    return box


class Track:
    """One tracked object: lifecycle counters, its newest center, and its last
    center off the counting line (at birth, its first center). Its Kalman
    state is a row of ``SortTracker.x`` and ``SortTracker.P``."""

    def __init__(self, track_id: int, detection: Detection):
        self.id = track_id
        self.hits = 1
        self.misses = 0
        self.center = self.off_line = detection.center
        self.counted: set[int] = set()  # directions already crossed
        self.pending: list[tuple[int, int]] = []  # (frame index, direction)


def associate(iou: np.ndarray, gate: float) -> list[tuple[int, int]]:
    """The (detection, track) pairs of ``hungarian(1 - iou)`` whose IOU is at
    least ``gate``, sorted by detection.

    When no row and no column of ``iou`` has two positive entries, every
    minimum-cost assignment holds all the positive pairs, since leaving one
    out raises the cost by its IOU. The solver settles ties within ``TIE_TOL``
    per unit of total cost on each of the ``size`` pairs of its square matrix,
    so its answer holds every positive pair of IOU over ``TIE_TOL * size**2``.
    For a gate above twice that, the gated positive pairs in row-major order
    are then its gated pairs, and no solve runs. Any other matrix, and any
    lower gate, under which pairs of no overlap may pass, takes the solve.
    """
    d, t = np.nonzero(iou > 0)
    rows, cols = d.tolist(), t.tolist()
    size = max(iou.shape)
    if gate > 2 * TIE_TOL * size * size and len(set(rows)) == len(rows) == len(set(cols)):
        return [(r, c) for r, c, v in zip(rows, cols, iou[d, t].tolist()) if v >= gate]
    return [(r, c) for r, c in hungarian(1.0 - iou) if iou[r, c] >= gate]


class SortTracker:
    """Tracking-by-detection: predict, associate by IOU, update, age out.

    The Kalman states of all live tracks are stacked: row i of ``x`` (n, 7)
    and ``P`` (n, 7, 7) belongs to ``tracks[i]``, and rows are dropped and
    appended together with the track list. Each step predicts every row at
    once and updates the matched rows at once. Association (``associate``)
    matches disjoint overlaps without a solve.
    """

    def __init__(self, params: CountParams = CountParams()):
        self.params = params
        self.tracks: list[Track] = []
        self.x = np.empty((0, 7))
        self.P = np.empty((0, 7, 7))
        self._next_id = 1

    def _check_finite(self, x: np.ndarray, rows: Sequence[int]) -> None:
        """Raise an AerotraceError naming the track of the first non-finite row of
        ``x``, whose row k belongs to ``tracks[rows[k]]``."""
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise AerotraceError(f"track {self.tracks[rows[int(finite.argmin())]].id} diverged")

    def step(self, detections: list[Detection]) -> None:
        x = self.x
        x[x[:, 2] + x[:, 6] <= 0, 6] = 0.0  # do not let area velocity drive the scale negative
        x, P = kf_predict(x, self.P)
        self._check_finite(x, range(len(self.tracks)))

        boxes = np.array([d.box for d in detections], dtype=float).reshape(-1, 4)
        matches: list[tuple[int, int]] = []
        if detections and self.tracks:
            matches = associate(iou_matrix(boxes, boxes_from_states(x)), self.params.iou_gate)

        states = states_from_boxes(boxes)
        d_rows, t_rows = [d for d, _ in matches], [t for _, t in matches]
        if matches:
            xm, P[t_rows] = kf_update(x[t_rows], P[t_rows], states[d_rows, :4])
            self._check_finite(xm, t_rows)  # in match order
            x[t_rows] = xm
            for d, t in matches:
                self.tracks[t].hits += 1
                self.tracks[t].center = detections[d].center

        matched_t = set(t_rows)
        for i, track in enumerate(self.tracks):
            track.misses = 0 if i in matched_t else track.misses + 1
        keep = [i for i, t in enumerate(self.tracks) if t.misses <= self.params.max_age]
        if len(keep) < len(self.tracks):
            self.tracks = [self.tracks[i] for i in keep]
            x, P = x[keep], P[keep]
        matched_d = set(d_rows)
        born = [d for d in range(len(detections)) if d not in matched_d]
        if born:
            self.tracks += [Track(self._next_id + k, detections[d]) for k, d in enumerate(born)]
            self._next_id += len(born)
            x = np.concatenate([x, states[born]])
            P = np.concatenate([P, P0_MAT[None].repeat(len(born), axis=0)])
        self.x, self.P = x, P


# ---------------------------------------------------------------------------
# Line crossings

# Endpoint coordinates within +-1e150 keep the direction below 2e150 and, for any
# point in the u16 frame range, |side()| below 4.1e300, so both stay finite.
MAX_LINE_COORD = 1e150


@dataclass(frozen=True)
class CountLine:
    """Directed segment; its direction vector defines the up/down sides."""

    p1: tuple[float, float]
    p2: tuple[float, float]

    def __post_init__(self) -> None:
        if not all(abs(v) <= MAX_LINE_COORD for v in (*self.p1, *self.p2)):
            raise DataError(f"counting line endpoints must be finite and within "
                            f"+-{MAX_LINE_COORD:g}, got {self.p1}, {self.p2}")
        if self.p1 == self.p2:
            raise DataError("counting line endpoints must be distinct")

    def side(self, p: tuple[float, float]) -> float:
        dx, dy = self.p2[0] - self.p1[0], self.p2[1] - self.p1[1]
        return dx * (p[1] - self.p1[1]) - dy * (p[0] - self.p1[0])


def segment_crossing(line: CountLine, p: tuple[float, float],
                     q: tuple[float, float]) -> int | None:
    """Direction of a proper crossing of the line segment by p->q, else None.

    Returns DIR_UP when the move ends on the line's positive side, DIR_DOWN
    for the other way. Touches (an endpoint exactly on the other segment) do
    not count.
    """
    sp, sq = line.side(p), line.side(q)
    if sp == 0 or sq == 0 or (sp > 0) == (sq > 0):
        return None
    dx, dy = q[0] - p[0], q[1] - p[1]
    t1 = dx * (line.p1[1] - p[1]) - dy * (line.p1[0] - p[0])
    t2 = dx * (line.p2[1] - p[1]) - dy * (line.p2[0] - p[0])
    if t1 == 0 or t2 == 0 or (t1 > 0) == (t2 > 0):
        return None
    return DIR_UP if sq > 0 else DIR_DOWN


def crossing_step(line: CountLine, off_line: tuple[float, float], center: tuple[float, float],
                  counted: set[int]) -> tuple[tuple[float, float], int | None]:
    """One frame of a track's count, on the chord from ``off_line``, its last
    center off the line, to its newest ``center``. Returns the next off-line
    point (``center`` unless it lies on the line) and the chord's direction if
    it crosses and is not yet in ``counted``, which then holds it, else None.
    So a path through a point on the line crosses once, on the step that
    leaves it, and a repeated center finds nothing new."""
    d = segment_crossing(line, off_line, center)
    if d is not None and d not in counted:
        counted.add(d)
    else:
        d = None
    return (off_line if line.side(center) == 0 else center), d


# ---------------------------------------------------------------------------
# Whole-video counting

@dataclass(frozen=True)
class HourlyCounts:
    hours: tuple[datetime, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]


class VehicleCounter:
    """Stateful per-video pipeline feeding frames through subtraction,
    detection, tracking, and line counting.

    Each frame applies ``crossing_step`` once to every live track. A
    crossing event is noted as soon as a track's chord crosses the line but
    only released to the tally once the track has accumulated ``min_hits``
    updates, so short-lived noise never counts.
    """

    def __init__(self, line: CountLine, params: CountParams = CountParams()):
        self.line = line
        self.params = params
        self.bg: BackgroundModel | None = None
        self.tracker = SortTracker(params)
        self.events: list[tuple[int, int]] = []  # (frame index, direction)

    def process(self, frame: np.ndarray, frame_idx: int) -> None:
        if self.bg is None:
            h, w = frame.shape
            self.bg = BackgroundModel(w, h, self.params.pixel_threshold,
                                      self.params.min_stability)
        mask = self.bg.update(frame)
        detections = extract_detections(mask, self.params.min_area)
        self.tracker.step(detections)
        for track in self.tracker.tracks:
            track.off_line, d = crossing_step(self.line, track.off_line, track.center,
                                              track.counted)
            if d is not None:
                track.pending.append((frame_idx, d))
            if track.hits >= self.params.min_hits and track.pending:
                self.events.extend(track.pending)
                track.pending.clear()


def last_frame_hour(start: datetime, n_frames: int, fps: float) -> datetime:
    """UTC hour of the last of ``n_frames`` frames; DataError past year 9999."""
    try:
        return floor_to(start + timedelta(seconds=(n_frames - 1) / fps), HOUR_S)
    except OverflowError:
        raise DataError(f"start {format_utc(start)} plus the video length of "
                        f"{n_frames / fps:g} s is past year 9999") from None


def count_frames(frames: Iterable[np.ndarray], line: CountLine,
                 start: datetime, fps: float,
                 params: CountParams = CountParams()) -> HourlyCounts:
    """Count line crossings over a frame stream and bucket them per UTC hour."""
    counter = VehicleCounter(line, params)
    n = 0
    for idx, frame in enumerate(frames):
        counter.process(frame, idx)
        n = idx + 1
    if n == 0:
        raise DataError("no frames to count")
    first_hour = floor_to(start, HOUR_S)
    last_hour = last_frame_hour(start, n, fps)
    n_hours = int((last_hour - first_hour).total_seconds()) // HOUR_S + 1
    up = [0] * n_hours
    down = [0] * n_hours
    for idx, direction in counter.events:
        ts = start + timedelta(seconds=idx / fps)
        slot = int((floor_to(ts, HOUR_S) - first_hour).total_seconds()) // HOUR_S
        if direction == DIR_UP:
            up[slot] += 1
        else:
            down[slot] += 1
    hours = tuple(first_hour + timedelta(hours=k) for k in range(n_hours))
    return HourlyCounts(hours=hours, up=tuple(up), down=tuple(down))


def count_video(path: str | Path, line: CountLine,
                params: CountParams = CountParams(),
                start: datetime | None = None) -> HourlyCounts:
    """Count crossings in an FSEQ file; frame times are start + index / fps.

    The chunk start comes from the ``<node>_YYYYMMDD_HHMMSS.fseq`` file name
    unless given explicitly; unparsable names fall back to the epoch.
    """
    info, frames = iter_fseq_frames(path)
    if start is None:
        start = parse_chunk_start(str(path))
        if start is None:
            start = datetime.fromtimestamp(0, tz=UTC)
            log.warning("%s: no timestamp in file name, counting from epoch", path)
    if info.frame_count:
        last_frame_hour(start, info.frame_count, info.fps)  # fail before reading a frame
    return count_frames(frames, line, start, info.fps, params)
