"""Workload definitions: seeded input generation, CLI commands, output checks.

Each workload is a function of ``(seed, scale)``. ``make_inputs`` writes every
input file into a directory, ``commands`` lists the ``aerotrace`` argv lists
one iteration runs, and ``check`` verifies the outputs against facts derived
from the inputs alone (the scene script, the schedule, the generated series),
never against the program's own helpers.

Scales: ``full`` is what the benchmark measures; ``tiny`` keeps every check
meaningful at a size the self-test can afford.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

UTC = timezone.utc
TS_FMT = "%Y-%m-%dT%H:%M:%SZ"

WORKLOADS = ("count-highway", "count-dense", "node-ingest", "analysis-week")
SCALES = ("full", "tiny")

FSEQ_HEADER = struct.Struct("<5sHHBI")
NODE_ID = "bench-node"
MAX_LAG = 6


def _fmt(ts: datetime) -> str:
    return ts.strftime(TS_FMT)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Scenes for the count workloads

@dataclass(frozen=True)
class SceneSpec:
    """Vehicles in horizontal lanes crossing a vertical line at mid-frame.

    Every vehicle enters the frame at least ``SETTLE_S`` after the start, so
    the background model has settled, and crosses the line at least
    ``SETTLE_S`` before the end, so its track is confirmed. The seed sets
    each lane's direction, speed and phase, and each vehicle's intensity.
    """

    width: int
    height: int
    duration_s: float
    lanes: int
    per_lane: int
    obj_w: int
    obj_h: int
    speed_px_s: tuple[float, float]
    fps: int = 10
    noise: int = 3
    background: int = 30

    @property
    def frames(self) -> int:
        return int(round(self.duration_s * self.fps))

    @property
    def line(self) -> tuple[float, float, float, float]:
        x = self.width / 2
        return (x, 0.0, x, float(self.height))


SETTLE_S = 2.0

SCENES = {
    ("count-highway", "full"): SceneSpec(1296, 730, 30.0, 8, 1, 120, 60, (180.0, 220.0)),
    ("count-highway", "tiny"): SceneSpec(324, 182, 12.0, 2, 1, 40, 20, (60.0, 90.0)),
    ("count-dense", "full"): SceneSpec(324, 182, 60.0, 12, 10, 20, 10, (52.0, 55.0)),
    ("count-dense", "tiny"): SceneSpec(324, 182, 20.0, 3, 3, 20, 10, (52.0, 55.0)),
}

SCENE_START = datetime(2022, 7, 1, 16, 0, 0, tzinfo=UTC)


def scene_script(spec: SceneSpec, rng) -> str:
    """A scene script in the ``aerotrace synth`` format."""
    lines = [f"width={spec.width}", f"height={spec.height}", f"fps={spec.fps}",
             f"duration={spec.duration_s:g}", f"background={spec.background}",
             f"noise={spec.noise}", f"start={_fmt(SCENE_START)}"]
    line_x = spec.line[0]
    pitch = spec.height / spec.lanes
    for lane in range(spec.lanes):
        y = int(round((lane + 0.5) * pitch - spec.obj_h / 2))
        v = float(rng.uniform(*spec.speed_px_s))
        sign = 1 if rng.random() < 0.5 else -1
        first = SETTLE_S + (spec.width / 2 + spec.obj_w / 2 + 1) / v
        slot = (spec.duration_s - SETTLE_S - first) / spec.per_lane
        if slot * v < spec.obj_w + 25:
            raise ValueError(f"scene {spec} cannot fit its lanes")
        # Vehicle k crosses at first + (k + phase) * slot. Even spacing and a
        # narrow speed range keep the number of vehicles in view, and with it
        # the tracking cost, nearly the same for every seed.
        phase = float(rng.uniform(0.05, 0.95))
        for k in range(spec.per_lane):
            t_cross = first + (k + phase) * slot
            # Top-left x at t=0 that puts the centre on the line at t_cross.
            x0 = line_x - (spec.obj_w - 1) / 2 - sign * v * t_cross
            intensity = int(rng.integers(110, 231))
            lines.append(f"object l{lane}v{k} size={spec.obj_w}x{spec.obj_h} "
                         f"start={x0:.2f},{y} velocity={sign * v:.2f},0 "
                         f"intensity={intensity}")
    return "\n".join(lines) + "\n"


_OBJ_RE = re.compile(r"^object \S+ size=(\d+)x(\d+) start=(-?[\d.]+),(-?[\d.]+) "
                     r"velocity=(-?[\d.]+),(-?[\d.]+) intensity=\d+$")


def scene_truth(script: str, line: tuple[float, float, float, float]) -> dict[str, int]:
    """Up/down crossings implied by the script: the sign of each centre path
    against the directed count line, at the first and the last rendered frame."""
    params = dict(ln.split("=", 1) for ln in script.splitlines()
                  if "=" in ln and not ln.startswith("object "))
    fps = int(params["fps"])
    t_end = (int(round(float(params["duration"]) * fps)) - 1) / fps
    x1, y1, x2, y2 = line
    up = down = 0
    for ln in script.splitlines():
        m = _OBJ_RE.match(ln)
        if not m:
            continue
        w, h, x, y, vx, vy = (float(g) for g in m.groups())
        sides = []
        for t in (0.0, t_end):
            # The renderer rounds the corner to whole pixels.
            cx = round(x + vx * t) + (w - 1) / 2
            cy = round(y + vy * t) + (h - 1) / 2
            sides.append((x2 - x1) * (cy - y1) - (y2 - y1) * (cx - x1))
        if sides[0] < 0 < sides[1]:
            up += 1
        elif sides[1] < 0 < sides[0]:
            down += 1
    return {"up": up, "down": down}


# ---------------------------------------------------------------------------
# Node ingest

@dataclass(frozen=True)
class NodeSpec:
    duration_s: int
    width: int = 1296
    height: int = 730
    fps: int = 10
    sample_interval_s: int = 10
    chunk_s: int = 5
    accel: float = 1e6  # far ahead of the loop, so it never sleeps

    @property
    def frames(self) -> int:
        return self.duration_s * self.fps


NODES = {"full": NodeSpec(120), "tiny": NodeSpec(20, width=324, height=182)}


def node_start(seed: int) -> datetime:
    """A seed-dependent whole-second start that keeps the run inside one UTC day."""
    return datetime(2022, 7, 1, tzinfo=UTC) + timedelta(seconds=3600 + (seed * 7919) % 79000)


def node_schedule(spec: NodeSpec, start: datetime) -> dict:
    """Chunk files, frame counts and CSV rows the node must produce."""
    chunks: dict[str, int] = {}
    for k in range(spec.frames):
        t = start + timedelta(microseconds=k * round(1e6 / spec.fps))
        key = math.floor(t.timestamp() / spec.chunk_s) * spec.chunk_s
        name = f"{NODE_ID}_{datetime.fromtimestamp(key, tz=UTC).strftime('%Y%m%d_%H%M%S')}.fseq"
        chunks[name] = chunks.get(name, 0) + 1
    n_samples = spec.duration_s // spec.sample_interval_s
    rows = [_fmt(start + timedelta(seconds=i * spec.sample_interval_s)) for i in range(n_samples)]
    csvs: dict[str, list[str]] = {}
    for ts in rows:
        csvs.setdefault(f"{NODE_ID}_{ts[:10]}.csv", []).append(ts)
    return {"chunks": chunks, "csvs": csvs, "samples": n_samples}


# ---------------------------------------------------------------------------
# Analysis week

DAY_S = 86400


def analysis_start(seed: int) -> datetime:
    return datetime(2022, 7, 4, tzinfo=UTC) + timedelta(days=7 * (seed % 50))


def _diurnal(t_s, phase_h):
    """Daily cycle peaking mid-afternoon, shifted by ``phase_h`` hours."""
    return np.sin(2 * np.pi * ((t_s / 3600.0) % 24 - 6.0 - phase_h) / 24.0)


def write_analysis_inputs(out: Path, seed: int, scale: str, rng) -> dict:
    days = 7 if scale == "full" else 2
    cal_s = DAY_S if scale == "full" else 4 * 3600
    start = analysis_start(seed)
    t0 = start.timestamp()

    # A week of raw node rows every 10 s, with hardware-error codes and spikes.
    n = days * DAY_S // 10
    t = t0 + 10.0 * np.arange(n)
    phase = rng.uniform(-2, 2)
    pm25 = 14 + 7 * _diurnal(t, phase) + rng.normal(0, 1.5, n)
    pm25 = np.maximum(np.round(pm25), 0).astype(int)
    spikes = rng.random(n) < 0.004
    pm25[spikes] += rng.integers(150, 400, int(spikes.sum()))
    errors = rng.random(n) < 0.002
    pm25[errors] = 65535
    pm25[0] = pm25[-1] = 14  # first and last rows survive every filter
    pm1 = np.maximum(pm25 - rng.integers(2, 6, n), 0)
    pm10 = pm25 + rng.integers(1, 5, n)
    temp = 27 + 3 * _diurnal(t, phase) + rng.normal(0, 0.2, n)
    rh = np.clip(65 - 5 * _diurnal(t, phase) + rng.normal(0, 1, n), 0, 100)
    pres = 1008 + rng.normal(0, 0.5, n)
    stamps = [_fmt(datetime.fromtimestamp(x, tz=UTC)) for x in t]
    with open(out / "raw.csv", "w") as fh:
        for row in zip(stamps, pm1, pm25, pm10, temp, rh, pres):
            fh.write("%s,%d,%d,%d,%.2f,%.2f,%.2f\n" % row)

    # Reference and device-under-test at 10 s for the calibration window.
    m = cal_s // 10
    tc = t0 + 10.0 * np.arange(m)
    ref = 20 + 8 * _diurnal(tc, phase) + np.cumsum(rng.normal(0, 0.15, m))
    ref = np.maximum(ref, 1.0)
    shift = int(rng.integers(1, 6))
    test = 1.15 * np.roll(ref, shift) + 1.5 + rng.normal(0, 0.8, m)
    for name, vals in (("ref.csv", ref), ("test.csv", test)):
        with open(out / name, "w") as fh:
            fh.write("timestamp,value\n")
            for ts, v in zip(stamps[:m], vals):
                fh.write(f"{ts},{v:.3f}\n")

    # Hourly vehicle counts over the same hours as the cleaned PM2.5.
    hours = days * 24
    th = t0 + 3600.0 * np.arange(hours)
    rate = 120 + 90 * _diurnal(th, phase + 1.0)
    up = rng.poisson(rate / 2)
    down = rng.poisson(rate / 2)
    with open(out / "vehicles.csv", "w") as fh:
        fh.write("hour_start,count_up,count_down,count_total\n")
        for ts, u, d in zip(th, up, down):
            fh.write(f"{_fmt(datetime.fromtimestamp(ts, tz=UTC))},{u},{d},{u + d}\n")
    return {"rows": int(n), "cal_points": int(cal_s // 60), "hours": int(hours)}


# ---------------------------------------------------------------------------
# Public interface

def make_inputs(workload: str, seed: int, scale: str, out: Path) -> dict:
    """Write the inputs for one (workload, seed, scale) and return their facts."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    facts: dict = {"workload": workload, "seed": seed, "scale": scale}
    if workload.startswith("count-"):
        from aerotrace.fseq import FseqWriter
        from aerotrace.synth import parse_scene_script, scene_frames
        spec = SCENES[(workload, scale)]
        text = scene_script(spec, rng)
        (out / "scene.txt").write_text(text)
        script = parse_scene_script(text)
        writer = FseqWriter(out / "scene.fseq", spec.width, spec.height, spec.fps)
        try:
            for frame in scene_frames(script, seed):
                writer.add(frame)
        finally:
            writer.close()
        facts.update(frames=spec.frames, width=spec.width, height=spec.height,
                     truth=scene_truth(text, spec.line))
    elif workload == "node-ingest":
        spec = NODES[scale]
        facts.update(asdict(spec), frames=spec.frames, start=_fmt(node_start(seed)))
        (out / "node.conf.in").write_text(node_config_template(facts))
    elif workload == "analysis-week":
        facts.update(write_analysis_inputs(out, seed, scale, rng))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    digests = {p.name: sha256_file(p) for p in sorted(out.iterdir()) if p.is_file()}
    facts["input_sha256"] = digests
    (out / "facts.json").write_text(json.dumps(facts, indent=1, sort_keys=True))
    return facts


def node_config_template(facts: dict) -> str:
    """The node config minus the per-run buffer and store paths."""
    return "\n".join([
        f"node_id={NODE_ID}",
        f"video_chunk_len={facts['chunk_s']}s",
        "retention=0s",
        f"sample_interval={facts['sample_interval_s']}s",
        f"frame_width={facts['width']}",
        f"frame_height={facts['height']}",
        f"video_fps={facts['fps']}",
        f"seed={facts['seed']}",
        f"start_time={facts['start']}",
    ]) + "\n"


def node_config(inputs: Path, run_dir: Path) -> Path:
    cfg = run_dir / "node.conf"
    cfg.write_text((inputs / "node.conf.in").read_text()
                   + f"buffer_dir={run_dir / 'buffer'}\nstore_root={run_dir / 'store'}\n")
    return cfg


def commands(facts: dict, inputs: Path, run_dir: Path) -> list[list[str]]:
    """The ``aerotrace`` argv lists of one iteration, run in order."""
    workload = facts["workload"]
    if workload.startswith("count-"):
        line = ",".join(f"{v:g}" for v in SCENES[(workload, facts["scale"])].line)
        return [["count", "--in", str(inputs / "scene.fseq"), "--line", line,
                 "--out", str(run_dir / "count.csv"), "--start", _fmt(SCENE_START)]]
    if workload == "node-ingest":
        return [["node", "run", "--config", str(node_config(inputs, run_dir)),
                 "--duration", f"{facts['duration_s']}s", "--accel", f"{facts['accel']:g}"]]
    return [
        ["analyze", "clean", "--in", str(inputs / "raw.csv"),
         "--out", str(run_dir / "clean.csv")],
        ["analyze", "calibrate", "--ref", str(inputs / "ref.csv"),
         "--test", str(inputs / "test.csv"), "--out", str(run_dir / "report.txt")],
        ["correlate", "--vehicles", str(inputs / "vehicles.csv"),
         "--pm25", str(run_dir / "clean.csv"), "--max-lag", str(MAX_LAG),
         "--out-dir", str(run_dir / "corr")],
    ]


def work_units(facts: dict) -> tuple[float, str]:
    """Input size one iteration processes, for the derived throughput."""
    if facts["workload"] == "analysis-week":
        return float(facts["rows"]), "rows"
    return float(facts["frames"]), "frames"


# ---------------------------------------------------------------------------
# Output checks

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _rows(path: Path, header: bool = True) -> list[list[str]]:
    lines = path.read_text().splitlines()[1 if header else 0:]
    return [ln.split(",") for ln in lines if ln.strip()]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_count(facts: dict, run_dir: Path, rcs: list[int]) -> Outcome:
    out = Outcome()
    truth = facts["truth"]
    try:
        rows = _rows(run_dir / "count.csv")
        up = sum(int(r[1]) for r in rows)
        down = sum(int(r[2]) for r in rows)
        totals_ok = all(int(r[3]) == int(r[1]) + int(r[2]) for r in rows)
    except (OSError, ValueError, IndexError) as exc:
        out.op(False, f"count.csv unreadable: {exc}")
        return out
    ok = rcs == [0] and totals_ok and (up, down) == (truth["up"], truth["down"])
    out.op(ok, f"exit {rcs}, counted up={up} down={down}, truth {truth}")
    return out


def _store_objects(store: Path) -> dict[str, Path]:
    base = store / NODE_ID
    if not base.is_dir():
        return {}
    return {p.relative_to(base).as_posix(): p for p in sorted(base.rglob("*"))
            if p.is_file() and p.suffix not in (".meta", ".tmp")}


def check_node(facts: dict, run_dir: Path, rcs: list[int], stdout: str) -> Outcome:
    """Failures: dropped samples, dropped or failed uploads, and sealed files
    missing from the store (or stored with the wrong size or frame count).
    Attempts: samples plus sealed files."""
    spec = NodeSpec(**{k: facts[k] for k in NodeSpec.__dataclass_fields__})
    sched = node_schedule(spec, datetime.strptime(facts["start"], TS_FMT).replace(tzinfo=UTC))
    summary = dict(ln.split("=", 1) for ln in stdout.splitlines() if "=" in ln)
    out = Outcome()
    if rcs != [0]:
        out.attempted = sched["samples"] + len(sched["chunks"]) + len(sched["csvs"])
        out.failed = out.attempted
        out.problems.append(f"node run exited {rcs}")
        return out
    written = int(summary.get("samples_written", 0))
    for i in range(sched["samples"]):
        out.op(i < written, f"samples_written={written}, scheduled {sched['samples']}")

    objects = _store_objects(run_dir / "store")
    frames_stored = 0
    for name, n_frames in sched["chunks"].items():
        path = objects.get(f"video/{name}")
        ok = False
        if path is not None:
            with open(path, "rb") as fh:
                magic, w, h, fps, count = FSEQ_HEADER.unpack(fh.read(FSEQ_HEADER.size))
            ok = (magic == b"FSEQ1"
                  and (w, h, fps, count) == (spec.width, spec.height, spec.fps, n_frames)
                  and path.stat().st_size == FSEQ_HEADER.size + count * w * h)
            frames_stored += count
        out.op(ok, f"chunk {name}: stored={path is not None}, expected {n_frames} frames")
    for name, stamps in sched["csvs"].items():
        path = objects.get(f"csv/{name}")
        rows = _rows(path, header=False) if path is not None else []
        out.op([r[0] for r in rows] == stamps and all(len(r) == 7 for r in rows),
               f"csv {name}: stored={path is not None}, expected {len(stamps)} rows")
    # A dropped or failed upload normally also leaves its file missing; count
    # only the losses the store check did not already see.
    files_failed = out.failed - (sched["samples"] - min(written, sched["samples"]))
    lost = int(summary.get("uploads_dropped", 0)) + int(summary.get("uploads_failed", 0))
    sealed = int(summary.get("chunks_sealed", -1)) + int(summary.get("csvs_sealed", -1))
    if lost > files_failed:
        out.failed += lost - files_failed
        out.problems.append(f"{lost} uploads dropped or failed")
    if sealed != len(sched["chunks"]) + len(sched["csvs"]) or frames_stored != spec.frames:
        out.failed += 1
        out.problems.append(f"sealed {sealed} files and stored {frames_stored} frames; "
                            f"scheduled {len(sched['chunks']) + len(sched['csvs'])} "
                            f"and {spec.frames}")
    out.failed = min(out.failed, out.attempted)
    return out


def _tier(path: Path) -> str:
    meta = path.with_name(path.name + ".meta").read_text()
    return next(ln[5:] for ln in meta.splitlines() if ln.startswith("tier="))


def _minute_means(path: Path) -> dict[int, float]:
    sums: dict[int, list[float]] = {}
    for ts, value in _rows(path):
        key = int(datetime.strptime(ts, TS_FMT).replace(tzinfo=UTC).timestamp()) // 60
        sums.setdefault(key, []).append(float(value))
    return {k: sum(v) / len(v) for k, v in sums.items()}


def check_analysis(facts: dict, inputs: Path, run_dir: Path, rcs: list[int]) -> Outcome:
    out = Outcome()
    hours = facts["hours"]
    # analyze clean: one row per hour of the week, every value in [0, 1].
    try:
        clean = _rows(run_dir / "clean.csv")
        ok = (len(clean) == hours and all(0.0 <= float(r[1]) <= 1.0 for r in clean)
              and (run_dir / "clean.csv.audit").is_file())
    except (OSError, ValueError, IndexError):
        ok = False
    out.op(rcs[0] == 0 and ok, f"clean: exit {rcs[0]}, expected {hours} rows in [0, 1]")

    # analyze calibrate: n_points, finite values, DTW no dearer than the diagonal.
    try:
        report = dict(ln.split("=", 1) for ln in
                      (run_dir / "report.txt").read_text().splitlines())
        ref = _minute_means(inputs / "ref.csv")
        test = _minute_means(inputs / "test.csv")
        common = sorted(set(ref) & set(test))
        diagonal = sum(abs(ref[k] - test[k]) for k in common)
        ok = (int(report["n_points"]) == facts["cal_points"] == len(common)
              and all(_finite(v) for v in report.values())
              and float(report["dtw_distance"]) <= diagonal * (1 + 1e-9) + 1e-6)
    except (OSError, ValueError, KeyError):
        ok = False
    out.op(rcs[1] == 0 and ok,
           f"calibrate: exit {rcs[1]}, expected {facts['cal_points']} finite points")

    # correlate: max_lag + 1 lag rows with finite r in [-1, 1], all hours joined.
    corr = run_dir / "corr"
    try:
        lags = _rows(corr / "lags.csv")
        joined = _rows(corr / "joined.csv")
        ok = (len(lags) == MAX_LAG + 1 and len(joined) == hours
              and all(_finite(r[1]) and abs(float(r[1])) <= 1 for r in lags)
              and (corr / "chart.svg").is_file())
    except (OSError, ValueError, IndexError):
        ok = False
    out.op(rcs[2] == 0 and ok,
           f"correlate: expected {MAX_LAG + 1} lag rows and {hours} joined hours")
    return out


def check(facts: dict, inputs: Path, run_dir: Path, rcs: list[int], stdout: str) -> Outcome:
    workload = facts["workload"]
    if workload.startswith("count-"):
        return check_count(facts, run_dir, rcs)
    if workload == "node-ingest":
        return check_node(facts, run_dir, rcs, stdout)
    return check_analysis(facts, inputs, run_dir, rcs)


def output_digests(facts: dict, run_dir: Path) -> dict[str, str]:
    """sha256 of every output file. For the node, the store listing (key, size,
    tier) plus each stored object: upload times follow the wall clock, so they
    are left out."""
    workload = facts["workload"]
    if workload.startswith("count-"):
        names = ["count.csv"]
    elif workload == "analysis-week":
        names = ["clean.csv", "clean.csv.audit", "report.txt",
                 "corr/chart.svg", "corr/joined.csv", "corr/lags.csv"]
    else:
        objects = _store_objects(run_dir / "store")
        listing = "".join(f"{k},{p.stat().st_size},{_tier(p)}\n" for k, p in objects.items())
        digests = {"store-listing": hashlib.sha256(listing.encode()).hexdigest()}
        combined = hashlib.sha256()
        for key, path in objects.items():
            combined.update(f"{key}:{sha256_file(path)}\n".encode())
        digests["store-objects"] = combined.hexdigest()
        return digests
    return {n: sha256_file(run_dir / n) for n in names if (run_dir / n).is_file()}
