"""The ``aerotrace`` command line.

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error.
Diagnostics go to stderr; stdout carries data only when no ``--out`` (or
``--out-dir``) was given. ``AEROTRACE_STORE_ROOT`` overrides the filesystem
store root for every subcommand that touches the store.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from datetime import datetime, timedelta
from pathlib import Path

from .blob_store import BlobRef, BlobStore
from .calib_metrics import calibration_report, format_report
from .clocks import AcceleratedClock
from .correlate import emit_report, join_hourly, lagged_cross_correlation
from .errors import AerotraceError, BackendError, DataError
from .node_pipeline import parse_duration, parse_node_config, run_node
from .pm_clean import CleanConfig, clean_pipeline
from .sensor_codec import CSV_FIELDS, parse_csv_columns, parse_csv_row
from .series import (
    UTC, TimeSeries, decode_utf8, format_csv_series, format_utc, parse_utc, read_csv_series,
    read_rows)
from .synth import moving_block_frame_source, parse_scene_script, synthetic_sample_source, write_scene_fseq
from .traffic_count import CountLine, CountParams, count_video

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

STORE_ROOT_ENV = "AEROTRACE_STORE_ROOT"

log = logging.getLogger("aerotrace")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _store_root(explicit: str | Path | None, hint: str) -> Path:
    """``STORE_ROOT_ENV``, else ``explicit``; ``hint`` says how to give ``explicit``."""
    root = os.environ.get(STORE_ROOT_ENV) or explicit
    if not root:
        raise DataError(f"no store root: {hint} or set {STORE_ROOT_ENV}")
    return Path(root)


def _read_input(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"input file not found: {p}")
    return p


def _utc_option(flag: str, text: str) -> datetime:
    try:
        return parse_utc(text)
    except ValueError:
        raise DataError(f"{flag} must be a UTC time like 2022-07-01T16:00:00Z "
                        f"(got {text!r})") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_sensor_series(path: Path, column: str) -> TimeSeries:
    data = path.read_bytes()
    parsed = parse_csv_columns(data, column)
    if parsed is not None:
        return TimeSeries(*parsed)
    linenos, lines = read_rows(path, data)
    if not lines:
        raise DataError(f"{path}: no rows")
    epoch, values = [], []
    for lineno, line in zip(linenos, lines):
        try:
            sample = parse_csv_row(line)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        source = sample if column in ("pm1_0", "pm2_5", "pm10") else sample.env
        epoch.append(int(sample.timestamp.timestamp()))
        try:
            values.append(float(getattr(source, column)))
        except OverflowError:
            raise DataError(f"{path}:{lineno}: {column} too large for a float") from None
    return TimeSeries(epoch, values)


def cmd_node_run(args: argparse.Namespace) -> int:
    config = parse_node_config(_read_input(args.config))
    # The schedule and the clock share one origin: the configured start, else now.
    config = dataclasses.replace(
        config, seed=config.seed if args.seed is None else args.seed,
        start_time=config.start_time or datetime.now(tz=UTC).replace(microsecond=0))
    duration = timedelta(seconds=parse_duration(args.duration))
    clock = AcceleratedClock(start=config.start_time, accel=args.accel)
    store = BlobStore(_store_root(config.store_root, "add a store_root line to the config"))
    summary = run_node(
        config,
        sample_source=synthetic_sample_source(config.seed),
        frame_source=moving_block_frame_source(config.frame_width, config.frame_height,
                                               config.seed),
        store=store, clock=clock, duration=duration)
    for key, value in summary.__dict__.items():
        sys.stdout.write(f"{key}={value}\n")
    return EXIT_OK


def cmd_store_ls(args: argparse.Namespace) -> int:
    store = BlobStore(_store_root(args.root, "pass --root"))
    lines = ["key,size,tier,uploaded_at"]
    for obj in store.list_node_objects(args.node):
        if args.prefix and not obj.key.startswith(args.prefix):
            continue
        lines.append(f"{obj.key},{obj.size},{obj.tier},{format_utc(obj.uploaded_at)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_store_get(args: argparse.Namespace) -> int:
    store = BlobStore(_store_root(args.root, "pass --root"))
    out = Path(args.out)
    store.download(BlobRef(container=args.node, key=args.key), out)
    log.info("wrote %d bytes to %s", out.stat().st_size, out)
    return EXIT_OK


def cmd_store_tier_sweep(args: argparse.Namespace) -> int:
    root = _store_root(args.root, "pass --root")
    now = _utc_option("--now", args.now) if args.now else datetime.now(tz=UTC)
    archive_after = timedelta(seconds=parse_duration(args.archive_after))
    moved = BlobStore(root).apply_tier_policy(args.node, archive_after, now)
    lines = [ref.key for ref in moved]
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    log.info("archived %d objects", len(moved))
    return EXIT_OK


def cmd_analyze_clean(args: argparse.Namespace) -> int:
    series = _read_sensor_series(_read_input(args.infile), args.column)
    config = CleanConfig(hw_error_threshold=args.threshold, stddev_k=args.stddev_k)
    result = clean_pipeline(series, config)
    _emit(format_csv_series(result.series, "hour_start,value_scaled"), args.out)
    audit = (
        f"dropped_hardware_errors={result.drops.hardware_errors}\n"
        f"dropped_outliers={result.drops.outliers}\n"
        f"x_min={result.params.x_min:.6f}\n"
        f"x_max={result.params.x_max:.6f}\n"
        f"constant={'true' if result.params.constant else 'false'}\n"
    )
    if args.out:
        Path(args.out + ".audit").write_text(audit)
    else:
        sys.stderr.write(audit)
    return EXIT_OK


def cmd_analyze_calibrate(args: argparse.Namespace) -> int:
    grid_s = parse_duration(args.grid)
    if grid_s != int(grid_s):
        raise DataError(f"--grid must be a whole number of seconds (got {args.grid!r})")
    ref = read_csv_series(_read_input(args.ref))
    test = read_csv_series(_read_input(args.test))
    report = calibration_report(
        ref, test,
        window=timedelta(seconds=parse_duration(args.window)),
        lam=args.lam,
        grid_step_s=int(grid_s))
    _emit(format_report(report), args.out)
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    try:
        x1, y1, x2, y2 = (float(v) for v in args.line.split(","))
    except ValueError:
        raise DataError(f"--line must be x1,y1,x2,y2 (got {args.line!r})") from None
    line = CountLine(p1=(x1, y1), p2=(x2, y2))
    params = CountParams(min_area=args.min_area)
    start = _utc_option("--start", args.start) if args.start else None
    counts = count_video(_read_input(args.infile), line, params=params, start=start)
    rows = ["hour_start,count_up,count_down,count_total"]
    rows += [f"{format_utc(h)},{u},{d},{u + d}"
             for h, u, d in zip(counts.hours, counts.up, counts.down)]
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    path = _read_input(args.script)
    script = parse_scene_script(decode_utf8(path, path.read_bytes()))
    info = write_scene_fseq(script, args.out, seed=args.seed)
    log.info("wrote %d frames (%dx%d @ %d fps) to %s",
             info.frame_count, info.width, info.height, info.fps, args.out)
    return EXIT_OK


def cmd_correlate(args: argparse.Namespace) -> int:
    vehicles = read_csv_series(_read_input(args.vehicles), value_col=-1)
    pm25 = read_csv_series(_read_input(args.pm25), value_col=-1)
    joined = join_hourly(vehicles, pm25)
    scan = lagged_cross_correlation(joined, max_lag=args.max_lag)
    written = emit_report(joined, scan.correlations, args.out_dir)
    log.info("best lag %d h (r=%.4f); wrote %s",
             scan.best.lag, scan.best.r, ", ".join(str(p) for p in written))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="aerotrace", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    node = sub.add_parser("node", help="node runtime").add_subparsers(
        dest="subcommand", required=True)
    run = node.add_parser("run", help="run a simulated node session")
    run.add_argument("--config", required=True, help="flat key=value config file")
    run.add_argument("--duration", required=True, help="run length, e.g. 1h")
    run.add_argument("--accel", type=float, default=1.0, help="virtual clock speed-up")
    run.add_argument("--seed", type=int, default=None, help="override config seed")
    run.set_defaults(func=cmd_node_run)

    store = sub.add_parser("store", help="store administration").add_subparsers(
        dest="subcommand", required=True)
    ls = store.add_parser("ls", help="list a node's objects")
    ls.add_argument("--root", help=f"store root (or {STORE_ROOT_ENV})")
    ls.add_argument("--node", required=True)
    ls.add_argument("--prefix", default=None)
    ls.set_defaults(func=cmd_store_ls)
    get = store.add_parser("get", help="download one object")
    get.add_argument("--root")
    get.add_argument("--node", required=True)
    get.add_argument("--key", required=True)
    get.add_argument("--out", required=True)
    get.set_defaults(func=cmd_store_get)
    sweep = store.add_parser("tier-sweep", help="archive objects past an age")
    sweep.add_argument("--root")
    sweep.add_argument("--node", required=True)
    sweep.add_argument("--archive-after", required=True, help="age, e.g. 30d")
    sweep.add_argument("--now", default=None, help="override current time (ISO Z)")
    sweep.set_defaults(func=cmd_store_tier_sweep)

    analyze = sub.add_parser("analyze", help="PM2.5 analytics").add_subparsers(
        dest="subcommand", required=True)
    clean = analyze.add_parser("clean", help="clean a raw telemetry CSV")
    clean.add_argument("--in", dest="infile", required=True)
    clean.add_argument("--column", default="pm2_5",
                       choices=CSV_FIELDS)
    clean.add_argument("--out", default=None)
    clean.add_argument("--threshold", type=float, default=20000.0)
    clean.add_argument("--stddev-k", dest="stddev_k", type=float, default=3.0)
    clean.set_defaults(func=cmd_analyze_clean)
    calib = analyze.add_parser("calibrate", help="evaluate a sensor against a reference")
    calib.add_argument("--ref", required=True, help="headered timestamp,value CSV")
    calib.add_argument("--test", required=True)
    calib.add_argument("--window", default="10m")
    calib.add_argument("--lambda", dest="lam", type=float, default=1600.0)
    calib.add_argument("--grid", default="60s", help="alignment grid step")
    calib.add_argument("--out", default=None)
    calib.set_defaults(func=cmd_analyze_calibrate)

    count = sub.add_parser("count", help="count vehicles in an FSEQ video")
    count.add_argument("--in", dest="infile", required=True)
    count.add_argument("--line", required=True, help="x1,y1,x2,y2")
    count.add_argument("--out", default=None)
    count.add_argument("--start", default=None, help="frame-0 timestamp (ISO Z)")
    count.add_argument("--min-area", dest="min_area", type=int, default=150)
    count.set_defaults(func=cmd_count)

    synth = sub.add_parser("synth", help="render a scripted synthetic scene")
    synth.add_argument("--script", required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=cmd_synth)

    corr = sub.add_parser("correlate", help="join counts with PM2.5 and report")
    corr.add_argument("--vehicles", required=True)
    corr.add_argument("--pm25", required=True)
    corr.add_argument("--max-lag", dest="max_lag", type=int, default=6)
    corr.add_argument("--out-dir", dest="out_dir", required=True)
    corr.set_defaults(func=cmd_correlate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except DataError as exc:
        sys.stderr.write(f"aerotrace: data error: {exc}\n")
        return EXIT_DATA
    except BackendError as exc:
        sys.stderr.write(f"aerotrace: backend error: {exc}\n")
        return EXIT_BACKEND
    except (OSError, AerotraceError) as exc:
        sys.stderr.write(f"aerotrace: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
