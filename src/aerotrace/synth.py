"""Synthetic fixtures: scripted moving-rectangle scenes rendered to frame
sequences, plus deterministic sensor/frame providers for simulated node runs.

Scene scripts are flat text. ``key=value`` lines set scene parameters
(width, height, fps, duration, background, noise, start); each
``object <name> size=WxH start=X,Y velocity=VX,VY intensity=I`` line adds a
rectangle whose top-left corner moves from (X, Y) at (VX, VY) pixels per
second. ``#`` starts a comment. Width and height are 1 to 65535, the FSEQ
header's range; noise and intensities are 0 to 255, what a uint8 frame shows.
A background level outside 0 to 255 is clipped, as every rendered pixel is.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError
from .fseq import MAX_FRAME_COUNT, FseqInfo, write_fseq
from .sensor_codec import SensorSample
from .series import UTC, parse_utc

_OBJECT_RE = re.compile(
    r"^object\s+(?P<name>\S+)\s+size=(?P<w>\d+)x(?P<h>\d+)"
    r"\s+start=(?P<x>-?\d+(?:\.\d+)?),(?P<y>-?\d+(?:\.\d+)?)"
    r"\s+velocity=(?P<vx>-?\d+(?:\.\d+)?),(?P<vy>-?\d+(?:\.\d+)?)"
    r"\s+intensity=(?P<i>\d+)$"
)


@dataclass(frozen=True)
class SceneObject:
    name: str
    width: int
    height: int
    x0: float
    y0: float
    vx: float  # px/s
    vy: float
    intensity: int

    def __post_init__(self) -> None:
        if not 0 <= self.intensity <= 255:
            raise DataError(f"object {self.name}: intensity={self.intensity} outside 0 to 255")

    def corner_at(self, t: float) -> tuple[float, float]:
        return (self.x0 + self.vx * t, self.y0 + self.vy * t)


@dataclass(frozen=True)
class SceneScript:
    width: int = 324
    height: int = 182
    fps: int = 10
    duration_s: float = 10.0
    background: int = 30
    noise: int = 0
    start: datetime = datetime.fromtimestamp(0, tz=UTC)
    objects: tuple[SceneObject, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not (1 <= self.width <= 0xFFFF and 1 <= self.height <= 0xFFFF):
            raise DataError(f"frame size {self.width}x{self.height} outside 1 to 65535")
        if not 0 <= self.noise <= 255:
            raise DataError(f"noise={self.noise} outside 0 to 255")
        if not self.duration_s * self.fps <= MAX_FRAME_COUNT:
            raise DataError(f"a {self.duration_s:g} s scene at {self.fps} fps needs more "
                            f"than {MAX_FRAME_COUNT} frames")

    @property
    def frame_count(self) -> int:
        return int(round(self.duration_s * self.fps))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise DataError(f"{text!r:.24} is not a finite number")
    return value


def parse_scene_script(text: str) -> SceneScript:
    params: dict[str, object] = {}
    objects: list[SceneObject] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("object "):
                m = _OBJECT_RE.match(line)
                if not m:
                    raise DataError(f"bad object row: {raw!r}")
                objects.append(SceneObject(
                    name=m.group("name"),
                    width=int(m.group("w")), height=int(m.group("h")),
                    x0=_finite(m.group("x")), y0=_finite(m.group("y")),
                    vx=_finite(m.group("vx")), vy=_finite(m.group("vy")),
                    intensity=int(m.group("i")),
                ))
                continue
            if "=" not in line:
                raise DataError(f"expected key=value: {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in ("width", "height", "fps", "background", "noise"):
                params[key] = int(value)
            elif key == "duration":
                params["duration_s"] = _finite(value)
            elif key == "start":
                params["start"] = parse_utc(value)
            else:
                raise DataError(f"unknown key {key!r}")
        except (ValueError, DataError) as exc:
            raise DataError(f"scene script line {lineno}: {exc}") from exc
    return SceneScript(objects=tuple(objects), **params)


def render_frame(script: SceneScript, frame_idx: int, seed: int = 0) -> np.ndarray:
    """Render the scene at t = frame_idx / fps. Later objects draw on top."""
    t = frame_idx / script.fps
    # Noise is at most 255, so a level past -256 or 511 renders as that bound.
    level = min(max(script.background, -256), 511)
    frame = np.full((script.height, script.width), level, dtype=np.int16)
    if script.noise > 0:
        rng = np.random.default_rng((seed, frame_idx))
        frame += rng.integers(-script.noise, script.noise + 1,
                              size=frame.shape, dtype=np.int16)
    for obj in script.objects:
        x, y = obj.corner_at(t)
        x0, y0 = int(round(x)), int(round(y))
        x1, y1 = x0 + obj.width, y0 + obj.height
        cx0, cy0 = max(x0, 0), max(y0, 0)
        cx1, cy1 = min(x1, script.width), min(y1, script.height)
        if cx0 < cx1 and cy0 < cy1:
            frame[cy0:cy1, cx0:cx1] = obj.intensity
    return np.clip(frame, 0, 255).astype(np.uint8)


def scene_frames(script: SceneScript, seed: int = 0) -> Iterator[np.ndarray]:
    for idx in range(script.frame_count):
        yield render_frame(script, idx, seed)


def write_scene_fseq(script: SceneScript, path: str | Path, seed: int = 0) -> FseqInfo:
    if script.frame_count < 1:
        raise DataError("scene duration renders zero frames")
    if seed < 0:  # numpy seeds no generator with a negative entry
        raise DataError(f"seed={seed} must not be negative")
    return write_fseq(path, scene_frames(script, seed), fps=script.fps)


def synthetic_sample_source(seed: int = 0):
    """Pull-based sensor stream: diurnal PM pattern plus seeded per-second noise."""

    def source(ts: datetime) -> SensorSample:
        rng = np.random.default_rng((seed, int(ts.timestamp())))
        hour = ts.hour + ts.minute / 60.0
        diurnal = math.sin(2 * math.pi * (hour - 6.0) / 24.0)
        pm2_5 = max(0, int(round(12 + 6 * diurnal + rng.normal(0, 1.0))))
        pm1_0 = max(0, pm2_5 - int(rng.integers(2, 6)))
        pm10 = pm2_5 + int(rng.integers(1, 5))
        return SensorSample(
            timestamp=ts, pm1_0=pm1_0, pm2_5=pm2_5, pm10=pm10,
            temp_c=round(27.0 + 3.0 * diurnal + rng.normal(0, 0.2), 2),
            rh_pct=round(min(100.0, max(0.0, 65.0 - 5.0 * diurnal + rng.normal(0, 1.0))), 2),
            pressure_hpa=round(1008.0 + rng.normal(0, 0.5), 2))

    return source


def moving_block_frame_source(width: int, height: int, seed: int = 0):
    """Pull-based camera stand-in: one bright block shuttling over a flat scene."""
    block_w = max(4, width // 8)
    block_h = max(4, height // 8)
    span = max(1, width - block_w)
    speed = max(8.0, width / 4.0)  # px/s

    def source(ts: datetime) -> np.ndarray:
        t = ts.timestamp()
        frame = np.full((height, width), 30, dtype=np.uint8)
        phase = (t * speed + seed) % (2 * span)
        x = int(phase if phase < span else 2 * span - phase)
        y = (height - block_h) // 2
        frame[y:y + block_h, x:x + block_w] = 200
        frame[0, 0] = int(t) % 256  # cheap per-frame variation
        return frame

    return source
