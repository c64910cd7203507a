"""In-memory tracing of the ``aerotrace`` layers from outside the program.

``Tracer.install`` replaces each public layer function at the name its
caller resolves (a module global such as ``aerotrace.traffic_count.hungarian``
or a class attribute such as ``SortTracker.step``) with a wrapper that records
a span (id, name, start, end, parent id) and updates counts. Parents follow a
per-thread stack, so the node's upload worker thread gets its own tree.
``restore`` puts every original back and raises if any name is not the
original object afterwards.

Self time of a span is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.maxima: dict[str, float] = defaultdict(float)
        self.enqueued_at: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def timed(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    # -- patching -----------------------------------------------------------

    def wrap(self, target: str, span: str, note=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr``. ``note(tracer, args,
        kwargs, result)`` runs after each successful call to update counts; a
        value it returns replaces the result."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.timed(span, original, *args, **kwargs)
            if note is not None:
                replaced = note(tracer, args, kwargs, result)
                if replaced is not None:
                    return replaced
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        for target, span, note in LAYERS:
            self.wrap(target, span, note)

    def restore(self) -> int:
        """Undo every wrap, newest first; return how many names were restored."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for owner, attr, original in self._patched:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"{owner}.{attr} was not restored")
        restored, self._patched = len(self._patched), []
        return restored

    # -- summary ------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus counts."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            child[parent] += end - start
        by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, name, start, end, _ in self.spans:
            entry = by_name[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[span_id]
        samples = dict(self.samples)
        samples["upload_ms"] = [(end - start) * 1e3 for _, name, start, end, _ in self.spans
                                if name == "blob_store.upload"]
        return {"spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in by_name.items()},
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "samples": samples}


# ---------------------------------------------------------------------------
# Layer table: what is wrapped and what each wrapper counts.

def _timed_frames(tracer: Tracer, frames):
    """Time each ``next`` of the FSEQ frame generator as an ``fseq.read`` span."""
    it = iter(frames)
    while True:
        try:
            frame = tracer.timed("fseq.read", next, it)
        except StopIteration:
            return
        yield frame


def _wrap_frame_reader(tracer, args, kwargs, result):
    info, frames = result
    return info, _timed_frames(tracer, frames)


def _detections(tracer, args, kwargs, result):
    tracer.add("detections", len(result))


def _live_tracks(tracer, args, kwargs, result):
    tracer.add("live_tracks", len(args[0].tracks))


def _matrix_cells(tracer, args, kwargs, result):
    shape = getattr(args[0], "shape", None) or (len(args[0]), len(args[0][0]))
    tracer.add("matrix_cells", shape[0] * shape[1])


def _crossings(tracer, args, kwargs, result):
    tracer.add("crossings", sum(result.up) + sum(result.down))


def _frame_bytes(tracer, args, kwargs, result):
    tracer.add("write_bytes", args[1].nbytes)


def _header_bytes(tracer, args, kwargs, result):
    from aerotrace.fseq import HEADER_SIZE
    tracer.add("write_bytes", HEADER_SIZE)


def _swept(tracer, args, kwargs, result):
    tracer.add("sweep_files_deleted", len(result))


def _uploaded(tracer, args, kwargs, result):
    tracer.add("upload_attempts", result.attempts)
    tracer.add("upload_bytes", Path(result.local_path).stat().st_size)


def _enqueued(tracer, args, kwargs, result):
    worker, path = args[0], args[1]
    with tracer._lock:
        if result:
            tracer.enqueued_at[Path(path).name] = time.perf_counter()
        tracer.maxima["upload_queue_high_water"] = max(
            tracer.maxima["upload_queue_high_water"], worker.queue.qsize())


def _confirmed(tracer, args, kwargs, result):
    with tracer._lock:
        enqueued = tracer.enqueued_at.pop(Path(args[0]).name, None)
        if enqueued is not None:
            tracer.samples["seal_to_confirm_ms"].append((time.perf_counter() - enqueued) * 1e3)


def _dtw_cells(tracer, args, kwargs, result):
    tracer.add("dtw_cells", len(args[0]) * len(args[1]))


LAYERS = [
    # Every command's root span.
    ("aerotrace.cli:main", "cli.main", None),
    # count
    ("aerotrace.traffic_count:iter_fseq_frames", "fseq.open", _wrap_frame_reader),
    ("aerotrace.traffic_count:count_frames", "traffic_count.count_frames", _crossings),
    ("aerotrace.traffic_count:VehicleCounter.process", "traffic_count.process", None),
    ("aerotrace.traffic_count:BackgroundModel.update", "traffic_count.background", None),
    ("aerotrace.traffic_count:extract_detections", "traffic_count.detect", _detections),
    ("aerotrace.traffic_count:SortTracker.step", "traffic_count.track", _live_tracks),
    ("aerotrace.traffic_count:hungarian", "assignment.hungarian", _matrix_cells),
    # node run
    ("aerotrace.fseq:FseqWriter.add", "fseq.write", _frame_bytes),
    ("aerotrace.fseq:FseqWriter.close", "fseq.close", _header_bytes),
    ("aerotrace.node_pipeline:_CsvSink.write", "node_pipeline.sample_write", None),
    ("aerotrace.node_pipeline:retention_sweep", "node_pipeline.sweep", _swept),
    ("aerotrace.node_pipeline:UploadWorker.enqueue", "node_pipeline.enqueue", _enqueued),
    ("aerotrace.node_pipeline:write_marker", "node_pipeline.confirm", _confirmed),
    ("aerotrace.blob_store:BlobStore.upload", "blob_store.upload", _uploaded),
    # analyze clean / calibrate, correlate
    ("aerotrace.cli:parse_csv_row", "sensor_codec.parse_row", None),
    ("aerotrace.cli:read_csv_series", "series.read_csv", None),
    ("aerotrace.cli:clean_pipeline", "pm_clean.pipeline", None),
    ("aerotrace.pm_clean:filter_hardware_errors", "pm_clean.filter", None),
    ("aerotrace.pm_clean:remove_outliers_stddev", "pm_clean.outliers", None),
    ("aerotrace.pm_clean:resample_hourly", "pm_clean.resample", None),
    ("aerotrace.pm_clean:min_max_normalize", "pm_clean.normalize", None),
    ("aerotrace.cli:calibration_report", "calib_metrics.report", None),
    ("aerotrace.calib_metrics:align_pair", "calib_metrics.align", None),
    ("aerotrace.calib_metrics:dtw", "calib_metrics.dtw", _dtw_cells),
    ("aerotrace.calib_metrics:moving_average", "calib_metrics.moving_average", None),
    ("aerotrace.calib_metrics:hp_filter", "calib_metrics.hp_filter", None),
    ("aerotrace.calib_metrics:mape", "calib_metrics.metrics", None),
    ("aerotrace.calib_metrics:rmse", "calib_metrics.metrics", None),
    ("aerotrace.calib_metrics:trend_match_score", "calib_metrics.metrics", None),
    ("aerotrace.cli:join_hourly", "correlate.join", None),
    ("aerotrace.cli:lagged_cross_correlation", "correlate.lag_scan", None),
    ("aerotrace.cli:emit_report", "correlate.emit_report", None),
]


# ---------------------------------------------------------------------------
# Per-layer metrics from the merged totals of the traced iterations.

def merge(totals: list[dict]) -> dict:
    """Sum span totals and counts, keep the largest maxima, pool samples."""
    out = {"spans": defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}),
           "counts": defaultdict(float), "maxima": defaultdict(float),
           "samples": defaultdict(list)}
    for t in totals:
        for name, entry in t["spans"].items():
            for key, value in entry.items():
                out["spans"][name][key] += value
        for key, value in t["counts"].items():
            out["counts"][key] += value
        for key, value in t["maxima"].items():
            out["maxima"][key] = max(out["maxima"][key], value)
        for key, values in t["samples"].items():
            out["samples"][key].extend(values)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(agg: dict, iterations: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as (value, unit). Totals and counts are per
    traced iteration; a layer the workload never calls reads 0."""
    spans, counts = agg["spans"], agg["counts"]

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def total(name):
        return spans[name]["total_s"] if name in spans else 0.0

    def self_s(name):
        return spans[name]["self_s"] if name in spans else 0.0

    per_iter = 1.0 / max(iterations, 1)
    frames = calls("traffic_count.process")
    samples = agg["samples"]
    return {
        "fseq.read_ms_per_frame": (_ratio(total("fseq.read") * 1e3, frames), "ms"),
        "traffic_count.background_ms_per_frame":
            (_ratio(total("traffic_count.background") * 1e3, frames), "ms"),
        "traffic_count.detect_ms_per_frame":
            (_ratio(total("traffic_count.detect") * 1e3, frames), "ms"),
        "traffic_count.detections_per_frame": (_ratio(counts["detections"], frames), "1/frame"),
        "traffic_count.track_self_ms_per_frame":
            (_ratio(self_s("traffic_count.track") * 1e3, frames), "ms"),
        "traffic_count.live_tracks_mean":
            (_ratio(counts["live_tracks"], calls("traffic_count.track")), "count"),
        "assignment.hungarian_calls": (calls("assignment.hungarian") * per_iter, "count"),
        "assignment.hungarian_ms_per_call":
            (_ratio(total("assignment.hungarian") * 1e3, calls("assignment.hungarian")), "ms"),
        "assignment.matrix_cells_mean":
            (_ratio(counts["matrix_cells"], calls("assignment.hungarian")), "count"),
        "traffic_count.process_self_ms_per_frame":
            (_ratio(self_s("traffic_count.process") * 1e3, frames), "ms"),
        "traffic_count.crossings": (counts["crossings"] * per_iter, "count"),
        "fseq.write_ms_per_frame":
            (_ratio(total("fseq.write") * 1e3, calls("fseq.write")), "ms"),
        "fseq.write_bytes": (counts["write_bytes"] * per_iter, "bytes"),
        "node_pipeline.sample_write_ms_per_sample":
            (_ratio(total("node_pipeline.sample_write") * 1e3,
                    calls("node_pipeline.sample_write")), "ms"),
        "node_pipeline.sweep_calls": (calls("node_pipeline.sweep") * per_iter, "count"),
        "node_pipeline.sweep_ms_total": (total("node_pipeline.sweep") * 1e3 * per_iter, "ms"),
        "node_pipeline.sweep_files_deleted": (counts["sweep_files_deleted"] * per_iter, "count"),
        "blob_store.upload_calls": (calls("blob_store.upload") * per_iter, "count"),
        "blob_store.upload_attempts": (counts["upload_attempts"] * per_iter, "count"),
        "blob_store.upload_ms_p50": (_p50(samples["upload_ms"]), "ms"),
        "blob_store.upload_bytes": (counts["upload_bytes"] * per_iter, "bytes"),
        "node_pipeline.upload_queue_high_water":
            (agg["maxima"]["upload_queue_high_water"], "count"),
        "node_pipeline.seal_to_confirm_ms_p50": (_p50(samples["seal_to_confirm_ms"]), "ms"),
        "sensor_codec.parse_us_per_row":
            (_ratio(total("sensor_codec.parse_row") * 1e6, calls("sensor_codec.parse_row")), "us"),
        "series.read_csv_s": (total("series.read_csv") * per_iter, "s"),
        "pm_clean.filter_s": (total("pm_clean.filter") * per_iter, "s"),
        "pm_clean.outliers_s": (total("pm_clean.outliers") * per_iter, "s"),
        "pm_clean.resample_s": (total("pm_clean.resample") * per_iter, "s"),
        "pm_clean.normalize_s": (total("pm_clean.normalize") * per_iter, "s"),
        "calib_metrics.align_s": (total("calib_metrics.align") * per_iter, "s"),
        "calib_metrics.dtw_s": (total("calib_metrics.dtw") * per_iter, "s"),
        "calib_metrics.dtw_cells": (counts["dtw_cells"] * per_iter, "count"),
        "calib_metrics.moving_average_s": (total("calib_metrics.moving_average") * per_iter, "s"),
        "calib_metrics.hp_filter_s": (total("calib_metrics.hp_filter") * per_iter, "s"),
        "calib_metrics.metrics_s": (total("calib_metrics.metrics") * per_iter, "s"),
        "correlate.join_s": (total("correlate.join") * per_iter, "s"),
        "correlate.lag_scan_s": (total("correlate.lag_scan") * per_iter, "s"),
        "correlate.emit_report_s": (total("correlate.emit_report") * per_iter, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
