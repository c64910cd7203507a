import contextlib
import io
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import ndimage

from aerotrace import traffic_count
from aerotrace.assignment import hungarian
from aerotrace.cli import EXIT_DATA, main
from aerotrace.errors import AerotraceError, DataError
from aerotrace.fseq import HEADER_SIZE, iter_fseq_frames, write_fseq
from aerotrace.synth import SceneObject, SceneScript, scene_frames
from aerotrace.traffic_count import (
    DIR_DOWN, DIR_UP, F_MAT, H_MAT, MAX_LINE_COORD, P0_MAT, Q_MAT, R_MAT, BackgroundModel,
    CountLine, CountParams, Detection, SortTracker, associate, background_masks,
    boxes_from_states, count_frames, count_video, crossing_step, extract_detections,
    iou_matrix, kf_predict, kf_update, segment_crossing)

UTC = timezone.utc
T0 = datetime(2022, 7, 1, 16, 0, 0, tzinfo=UTC)

# Scenes follow two safety rules: objects enter the frame only after the
# background has converged (t > min_stability / fps), and they move fast
# enough that no pixel stays covered for min_stability frames even at double
# frame rate. Most use even object widths, whose detected centers sit at
# half-integer x; the phase table in ``TestSceneCounting`` puts odd-width
# centers exactly on an integer-x counting line.
LINE_324 = CountLine(p1=(162.0, 0.0), p2=(162.0, 181.0))  # left side is positive


def scene(objects, duration, fps=10, width=324, height=182):
    return SceneScript(width=width, height=height, fps=fps, duration_s=duration,
                       background=30, objects=tuple(objects), start=T0)


def ltr(y0, x0=-140.0):  # crosses x=162 heading right: positive -> negative = down
    return SceneObject("ltr", 30, 20, x0, y0, 60.0, 0.0, 220)


def rtl(y0, x0=434.0):  # crosses heading left = up
    return SceneObject("rtl", 30, 20, x0, y0, -60.0, 0.0, 220)


class TestBackgroundModel:
    def test_static_scene_converges(self):
        model = BackgroundModel(20, 10)
        frame = np.full((10, 20), 50, dtype=np.uint8)
        for _ in range(15):
            mask = model.update(frame)
        assert not mask.any()
        assert model.has_background.all()

    def test_moving_square_masked_exactly(self):
        model = BackgroundModel(100, 80)
        background = np.full((80, 100), 30, dtype=np.uint8)
        for _ in range(20):
            model.update(background)
        for x0 in (10, 20, 30):
            frame = background.copy()
            frame[15:65, x0:x0 + 50] = 220
            mask = model.update(frame)
            expected = np.zeros_like(mask)
            expected[15:65, x0:x0 + 50] = True
            assert np.array_equal(mask, expected)

    def test_illumination_step_floods_then_clears(self):
        model = BackgroundModel(16, 12, min_stability=15)
        dark = np.full((12, 16), 40, dtype=np.uint8)
        bright = np.full((12, 16), 100, dtype=np.uint8)
        for _ in range(20):
            model.update(dark)
        flooded = 0
        for _ in range(15):
            if model.update(bright).all():
                flooded += 1
        assert flooded == 15
        assert not model.update(bright).any()

    def test_dimension_mismatch(self):
        model = BackgroundModel(8, 8)
        with pytest.raises(DataError, match=r"^frame is \(8, 9\), model expects \(8, 8\)$"):
            model.update(np.zeros((8, 9), dtype=np.uint8))


class BackgroundModelOracle:
    """Background oracle: the int16, four-``np.where`` update ``BackgroundModel``
    replaced."""

    def __init__(self, width, height, pixel_threshold=16, min_stability=15):
        self.pixel_threshold = pixel_threshold
        self.min_stability = min_stability
        self.candidate = None
        self.stability = np.zeros((height, width), dtype=np.int32)
        self.background = np.zeros((height, width), dtype=np.int16)
        self.has_background = np.zeros((height, width), dtype=bool)

    def update(self, frame):
        f = frame.astype(np.int16)
        if self.candidate is None:
            self.candidate = f.copy()
        stable = np.abs(f - self.candidate) <= self.pixel_threshold
        self.stability = np.where(stable, self.stability + 1, 0)
        self.candidate = np.where(stable, self.candidate, f)
        promote = self.stability >= self.min_stability
        self.background = np.where(promote, self.candidate, self.background)
        self.has_background |= promote
        return self.has_background & (np.abs(f - self.background) > self.pixel_threshold)


@st.composite
def frame_runs(draw):
    """A uint8 frame sequence: runs of one illumination level plus seeded noise,
    so pixels settle, get promoted, and are flooded by a level step."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = draw(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 40), st.integers(1, 12)),
                         min_size=1, max_size=5))
    frames = [np.clip(level + rng.integers(-noise, noise + 1, (h, w)), 0, 255).astype(np.uint8)
              for level, noise, length in runs for _ in range(length)]
    return h, w, frames


def assert_matches_oracle(model, oracle, frames):
    """Equal masks and state on every frame. The model's counter saturates at
    ``min_stability``; the oracle's only ever matters as ``>= min_stability``."""
    for frame in frames:
        mask = model.update(frame)
        expected = oracle.update(frame)
        assert mask.dtype == bool and np.array_equal(mask, expected)
        assert np.array_equal(model.has_background, oracle.has_background)
        assert np.array_equal(model.stability,
                              np.minimum(oracle.stability, oracle.min_stability))
        assert np.array_equal(model.candidate, oracle.candidate)
        assert np.array_equal(model.background, oracle.background)


class TestBackgroundModelOracle:
    @given(frame_runs(), st.one_of(st.just(0), st.integers(-2, 300)), st.integers(1, 8))
    def test_matches_where_oracle(self, run, threshold, min_stability):
        h, w, frames = run
        assert_matches_oracle(BackgroundModel(w, h, threshold, min_stability),
                              BackgroundModelOracle(w, h, threshold, min_stability), frames)

    # 6 bytes on a 3-wide frame make strips of 2, 2 and 1 rows; 1 byte makes
    # one row per strip.
    @given(frame_runs(), st.integers(1, 40), st.integers(0, 60), st.integers(1, 8))
    @example((5, 3, [np.full((5, 3), 40, np.uint8)] * 3 + [np.full((5, 3), 90, np.uint8)] * 3),
             6, 16, 2)
    @example((4, 2, [np.arange(8, dtype=np.uint8).reshape(4, 2) * 30] * 3), 1, 0, 2)
    # Every strip settles, then the middle one steps its level and settles again.
    @example((6, 3, [np.full((6, 3), 40, np.uint8)] * 4
              + [np.repeat(np.array([[40], [40], [90], [90], [40], [40]], np.uint8), 3, 1)] * 5),
             6, 16, 2)
    def test_strips_match_where_oracle(self, run, strip_bytes, threshold, min_stability):
        h, w, frames = run
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traffic_count, "_STRIP_BYTES", strip_bytes)
            model = BackgroundModel(w, h, threshold, min_stability)
        assert_matches_oracle(model, BackgroundModelOracle(w, h, threshold, min_stability), frames)

    def test_counter_saturates_without_wrapping(self):
        """Past 256 constant frames a wrapping uint8 counter would restart; the
        level step is then flooded for exactly 255 frames, as the oracle's is."""
        dark = np.full((2, 3), 40, dtype=np.uint8)
        bright = np.full((2, 3), 100, dtype=np.uint8)
        model = BackgroundModel(3, 2, min_stability=255)
        assert_matches_oracle(model, BackgroundModelOracle(3, 2, min_stability=255),
                              [dark] * 300 + [bright] * 300)
        assert (model.stability == 255).all() and (model.background == 100).all()

    @pytest.mark.parametrize("min_stability", [0, 256])
    def test_min_stability_out_of_range(self, min_stability):
        with pytest.raises(DataError, match="min_stability"):
            BackgroundModel(4, 3, min_stability=min_stability)

    # Noise of 8 keeps every pixel within the threshold of its candidate, so the
    # model fills at frame 14 and then re-promotes what the vehicles uncover;
    # noise of 12 restarts candidates at random and the model does not fill in 9 s.
    @pytest.mark.parametrize("noise, fills", [(8, True), (12, False)])
    def test_synthetic_scene_matches(self, noise, fills):
        script = replace(scene([ltr(30), rtl(120)], duration=9), noise=noise)
        model = BackgroundModel(324, 182)
        assert_matches_oracle(model, BackgroundModelOracle(324, 182), scene_frames(script, seed=5))
        assert model.has_background.all() == fills

    def test_settled_strips_are_skipped(self, monkeypatch):
        """Once a static scene settles, frames within the threshold write no
        state plane; a vehicle then entering one strip updates as the oracle."""
        monkeypatch.setattr(traffic_count, "_STRIP_BYTES", 40)  # 2 rows of 20 per strip
        model = BackgroundModel(20, 10, min_stability=4)
        oracle = BackgroundModelOracle(20, 10, min_stability=4)
        rng = np.random.default_rng(4)

        def frames(n):
            return [(50 + rng.integers(-8, 9, (10, 20))).astype(np.uint8) for _ in range(n)]

        assert_matches_oracle(model, oracle, frames(5))
        planes = (model.candidate, model.stability, model.background, model.has_background)
        for plane in planes:
            plane.flags.writeable = False
        for frame in frames(6):
            assert not model.update(frame).any()
            oracle.update(frame)
        for plane in planes:
            plane.flags.writeable = True
        passing = frames(12)
        for x, frame in zip(range(-6, 24, 3), passing):
            frame[4:6, max(x, 0):x + 6] = 220
        assert_matches_oracle(model, oracle, passing)

    def test_mask_is_a_fresh_array(self):
        model = BackgroundModel(4, 3, min_stability=1)
        first = model.update(np.zeros((3, 4), dtype=np.uint8))
        second = model.update(np.full((3, 4), 200, dtype=np.uint8))
        assert not first.any() and second.all()

    def test_non_uint8_frame_rejected(self):
        model = BackgroundModel(8, 8)
        with pytest.raises(DataError, match="uint8"):
            model.update(np.zeros((8, 8), dtype=np.int16))


class TestDetections:
    def test_empty_mask(self):
        assert extract_detections(np.zeros((10, 10), dtype=bool), 1) == []

    def test_two_rectangles(self):
        mask = np.zeros((40, 60), dtype=bool)
        mask[5:15, 10:30] = True    # 20x10 at (10, 5)
        mask[25:35, 40:52] = True   # 12x10 at (40, 25)
        dets = extract_detections(mask, min_area=50)
        assert [d.box for d in dets] == [(10, 5, 20, 10), (40, 25, 12, 10)]
        assert [d.area for d in dets] == [200, 120]
        assert dets[0].center == (10 + 19 / 2, 5 + 9 / 2)

    def test_l_shape_tight_box(self):
        mask = np.zeros((30, 30), dtype=bool)
        mask[5:20, 5:10] = True
        mask[15:20, 5:25] = True
        dets = extract_detections(mask, min_area=10)
        assert len(dets) == 1
        assert dets[0].box == (5, 5, 20, 15)
        assert dets[0].area == 15 * 5 + 5 * 15  # overlap counted once

    def test_min_area_filters(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[2:4, 2:4] = True
        assert extract_detections(mask, min_area=5) == []

    def test_diagonal_pixels_are_one_component(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2, 2] = mask[3, 3] = True
        dets = extract_detections(mask, min_area=1)
        assert len(dets) == 1


def extract_detections_oracle(mask, min_area):
    """Labelling oracle: one ``ndimage.label`` over the whole frame."""
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    counts = np.bincount(labels.ravel())
    dets = []
    for lab, sl in enumerate(ndimage.find_objects(labels), start=1):
        if counts[lab] >= min_area:
            y, x = sl[0].start, sl[1].start
            dets.append(Detection(box=(x, y, sl[1].stop - x, sl[0].stop - y),
                                  area=int(counts[lab])))
    dets.sort(key=lambda d: (d.box[1], d.box[0], d.box[3], d.box[2]))
    return dets


@st.composite
def masks(draw):
    """Random rectangles, diagonal pixel chains both ways, full rows and columns
    on the frame edges, then cleared rows, which leave single-row gaps."""
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    mask = np.zeros((h, w), dtype=bool)
    for y, x, bh, bw in draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1),
                                                st.integers(1, 8), st.integers(1, 8)),
                                      max_size=6)):
        mask[y:y + bh, x:x + bw] = True
    for y, x, n, step in draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1),
                                                 st.integers(1, 10), st.sampled_from([-1, 1])),
                                       max_size=4)):
        for k in range(n):
            if 0 <= y + k < h and 0 <= x + step * k < w:
                mask[y + k, x + step * k] = True
    for edge in draw(st.lists(st.sampled_from(["top", "bottom", "left", "right"]), max_size=2)):
        mask[{"top": (0, slice(None)), "bottom": (-1, slice(None)),
              "left": (slice(None), 0), "right": (slice(None), -1)}[edge]] = True
    mask[draw(st.lists(st.integers(0, h - 1), max_size=4))] = False
    return mask


@st.composite
def dense_masks(draw):
    """Uniform random masks up to 40x96 with pixel probability 0.3 to 0.7: many
    runs per row, joined to many runs above."""
    shape = draw(st.integers(1, 40)), draw(st.integers(1, 96))
    p = draw(st.floats(0.3, 0.7))
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(shape) < p


@st.composite
def checkerboards(draw):
    """Checkerboards of 1 to 4 px cells up to 40x96, whose cells join only at
    corners, with a few rows and columns cleared to split them apart."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 96))
    ch, cw, dy, dx = (draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (1, 4), (0, 7), (0, 7)))
    y, x = np.ogrid[dy:dy + h, dx:dx + w]
    mask = (y // ch + x // cw) % 2 == 0
    mask[draw(st.lists(st.integers(0, h - 1), max_size=4))] = False
    mask[:, draw(st.lists(st.integers(0, w - 1), max_size=4))] = False
    return mask


class TestDetectionsOracle:
    @given(masks(), st.integers(1, 12))
    def test_matches_whole_frame_labelling(self, mask, min_area):
        assert extract_detections(mask, min_area) == extract_detections_oracle(mask, min_area)

    @given(st.one_of(dense_masks(), checkerboards()), st.integers(1, 5))
    def test_dense_and_checkerboard_masks_match(self, mask, min_area):
        assert extract_detections(mask, min_area) == extract_detections_oracle(mask, min_area)

    def test_scene_masks_match(self):
        script = SceneScript(width=160, height=100, fps=10, duration_s=6, background=30,
                             noise=12, start=T0,
                             objects=(SceneObject("a", 24, 14, -20.0, 10.0, 60.0, 0.0, 220),
                                      SceneObject("b", 24, 14, 170.0, 60.0, -50.0, 5.0, 90)))
        model = BackgroundModel(160, 100, 16, 15)
        n_dets = 0
        for frame in scene_frames(script, seed=3):
            mask = model.update(frame)
            dets = extract_detections(mask, 1)
            assert dets == extract_detections_oracle(mask, 1)
            n_dets += len(dets)
        assert n_dets > 0


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPerFrameMemory:
    """At the paper's 1296x730 a frame is 0.95 MB; each call may hold the
    returned mask and small scratch, never full-frame int16 or label copies."""

    def test_background_update_works_in_place(self):
        model = BackgroundModel(1296, 730)
        rng = np.random.default_rng(0)
        frames = [rng.integers(0, 256, (730, 1296), dtype=np.uint8) for _ in range(3)]
        for frame in frames[:2]:
            model.update(frame)
        assert traced_peak(model.update, frames[2]) < 2 << 20

    def test_background_scratch_holds_one_strip(self):
        """The model's four state planes plus strip-sized scratch, not full-frame scratch."""
        assert traced_peak(BackgroundModel, 1296, 730) < 4 * 1296 * 730 + (1 << 20)

    def test_detections_label_only_the_bands(self):
        mask = np.zeros((730, 1296), dtype=bool)
        mask[100:160, 200:320] = True
        mask[400:470, 900:1050] = True
        assert len(extract_detections(mask)) == 2
        assert traced_peak(extract_detections, mask) < 2 << 20


def iou(a, b):
    """IOU oracle: the scalar form ``iou_matrix`` replaced."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def iou1(a, b):
    return iou_matrix(np.array([a], dtype=float), np.array([b], dtype=float))[0, 0]


class TestIou:
    def test_identical(self):
        assert iou1((3, 4, 10, 12), (3, 4, 10, 12)) == 1.0

    def test_disjoint(self):
        assert iou1((0, 0, 5, 5), (100, 100, 5, 5)) == 0.0

    def test_half_offset(self):
        assert iou1((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_empty_sides(self):
        boxes = np.array([[0.0, 0.0, 5.0, 5.0]] * 3)
        assert iou_matrix(np.empty((0, 4)), boxes).shape == (0, 3)
        assert iou_matrix(boxes, np.empty((0, 4))).shape == (3, 0)

    def test_nan_predicted_edge_matches_scalar(self):
        det = (2, 3, 10, 8)
        for pred in [(np.nan, 3.0, 10.0, 8.0), (2.0, 3.0, np.nan, 8.0), (np.nan,) * 4]:
            expected = 1.0 - np.array([[iou(det, pred)]])
            got = 1.0 - iou_matrix(np.array([det], dtype=float), np.array([pred]))
            assert got.tobytes() == expected.tobytes()

    # Detections are integer boxes; predictions are floats, integers and half
    # steps, so edges touch and coincide. Zero widths and heights give
    # zero-area boxes and zero unions.
    int_boxes = st.tuples(*[st.integers(-5, 30)] * 2, *[st.integers(0, 15)] * 2)
    coords = st.one_of(st.integers(-10, 40), st.integers(-20, 80).map(lambda k: k / 2),
                       st.floats(-10, 40, allow_nan=False))
    sizes = st.one_of(st.integers(0, 15), st.integers(0, 30).map(lambda k: k / 2),
                      st.floats(0, 20, allow_nan=False))
    float_boxes = st.tuples(coords, coords, sizes, sizes)

    # These pairs round differently under aw*ah + (bw*bh - inter).
    @example([(6, 7, 13, 10), (24, 17, 11, 10)],
             [(12.63, 3.467, 3.343, 4.38), (29.814, 8.475, 6.76, 14.155)])
    @given(st.lists(int_boxes, min_size=1, max_size=8), st.lists(float_boxes, min_size=1, max_size=8))
    def test_cost_matrix_bytes_match_scalar_oracle(self, dets, preds):
        expected = 1.0 - np.array([[iou(d, p) for p in preds] for d in dets])
        got = 1.0 - iou_matrix(np.array(dets, dtype=float), np.array(preds, dtype=float))
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


class TestKalman:
    def test_zero_velocity_zero_noise_predict(self):
        x = np.array([50.0, 60.0, 300.0, 1.5, 0.0, 0.0, 0.0])
        P = np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        x2, P2 = kf_predict_one(x, P, Q=np.zeros((7, 7)))
        assert np.array_equal(x2, x)
        assert np.array_equal(P2, P)

    def test_zero_innovation_keeps_mean(self):
        x = np.array([10.0, 20.0, 400.0, 2.0, 1.0, -1.0, 3.0])
        P = np.diag([4.0, 4.0, 9.0, 1.0, 2.0, 2.0, 2.0])
        z = x[:4].copy()
        x2, _ = kf_update(x, P, z)
        assert np.allclose(x2, x, atol=1e-12)

    def test_one_dimensional_two_step_hand_case(self):
        F = np.array([[1.0]])
        H = np.array([[1.0]])
        Q = np.array([[1.0]])
        R = np.array([[1.0]])
        x, P = np.array([0.0]), np.array([[1.0]])
        x, P = kf_predict_one(x, P, F=F, Q=Q)
        assert abs(x[0] - 0.0) < 1e-12 and abs(P[0, 0] - 2.0) < 1e-12
        x, P = kf_update_one(x, P, np.array([1.0]), H=H, R=R)
        assert abs(x[0] - 2 / 3) < 1e-12 and abs(P[0, 0] - 2 / 3) < 1e-12
        x, P = kf_predict_one(x, P, F=F, Q=Q)
        assert abs(x[0] - 2 / 3) < 1e-12 and abs(P[0, 0] - 5 / 3) < 1e-12
        x, P = kf_update_one(x, P, np.array([2.0]), H=H, R=R)
        assert abs(x[0] - 1.5) < 1e-12 and abs(P[0, 0] - 5 / 8) < 1e-12

    def test_covariance_stays_symmetric_psd(self, rng):
        x = np.array([100.0, 100.0, 500.0, 1.0, 0.0, 0.0, 0.0])
        P = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4])
        for _ in range(200):
            x, P = kf_predict(x, P)
            z = np.array([rng.uniform(0, 300), rng.uniform(0, 300),
                          rng.uniform(100, 5000), rng.uniform(0.3, 3.0)])
            x, P = kf_update(x, P, z)
            assert np.array_equal(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-9


def measurement_from_box(box):
    x, y, w, h = box
    return np.array([x + (w - 1) / 2.0, y + (h - 1) / 2.0, float(w) * h, w / float(h)])


def box_from_state(x):
    s, r = max(float(x[2]), 1e-6), max(float(x[3]), 1e-6)
    w = math.sqrt(s * r)
    h = s / w
    return (float(x[0]) - (w - 1) / 2.0, float(x[1]) - (h - 1) / 2.0, w, h)


def kf_predict_one(x, P, F=F_MAT, Q=Q_MAT):
    x2 = F @ x
    P2 = F @ P @ F.T + Q
    return x2, (P2 + P2.T) / 2.0


def kf_update_one(x, P, z, H=H_MAT, R=R_MAT):
    y = z - H @ x
    S = H @ P @ H.T + R
    K = np.linalg.solve(S, H @ P).T
    x2 = x + K @ y
    ikh = np.eye(x.size) - K @ H
    P2 = ikh @ P @ ikh.T + K @ R @ K.T
    return x2, (P2 + P2.T) / 2.0


class TrackOracle:
    """Per-track oracle: the ``Track`` that held its own Kalman state and
    predicted and updated itself, as ``SortTracker`` did before it stacked them."""

    def __init__(self, track_id, detection):
        self.id = track_id
        self.x = np.zeros(7)
        self.x[:4] = measurement_from_box(detection.box)
        self.P = P0_MAT.copy()
        self.hits = 1
        self.misses = 0
        self.center = detection.center

    def predict(self):
        if self.x[2] + self.x[6] <= 0:
            self.x[6] = 0.0
        self.x, self.P = kf_predict_one(self.x, self.P)
        if not np.isfinite(self.x).all():
            raise AerotraceError(f"track {self.id} diverged")
        return box_from_state(self.x)

    def update(self, detection):
        self.x, self.P = kf_update_one(self.x, self.P, measurement_from_box(detection.box))
        if not np.isfinite(self.x).all():
            raise AerotraceError(f"track {self.id} diverged")
        self.hits += 1
        self.misses = 0
        self.center = detection.center


class SortTrackerOracle:
    """Tracker oracle: one predict and one update per track."""

    def __init__(self, params=CountParams()):
        self.params = params
        self.tracks = []
        self._next_id = 1

    def step(self, detections):
        predicted = np.array([t.predict() for t in self.tracks], dtype=float)
        matches = []
        if detections and self.tracks:
            iou_mat = iou_matrix(np.array([d.box for d in detections], dtype=float), predicted)
            pairs = hungarian(1.0 - iou_mat)
            matches = [(d, t) for d, t in pairs if iou_mat[d, t] >= self.params.iou_gate]
        matched_d = {d for d, _ in matches}
        matched_t = {t for _, t in matches}
        for d, t in matches:
            self.tracks[t].update(detections[d])
        for i, track in enumerate(self.tracks):
            if i not in matched_t:
                track.misses += 1
        self.tracks = [t for t in self.tracks if t.misses <= self.params.max_age]
        for d, det in enumerate(detections):
            if d not in matched_d:
                self.tracks.append(TrackOracle(self._next_id, det))
                self._next_id += 1


def assert_trackers_equal(tracker, oracle):
    """Equal lifecycles and newest centers, and state bytes row by row."""
    assert [t.id for t in tracker.tracks] == [t.id for t in oracle.tracks]
    assert [t.hits for t in tracker.tracks] == [t.hits for t in oracle.tracks]
    assert [t.misses for t in tracker.tracks] == [t.misses for t in oracle.tracks]
    assert [t.center for t in tracker.tracks] == [t.center for t in oracle.tracks]
    n = len(oracle.tracks)
    assert tracker.x.shape == (n, 7) and tracker.P.shape == (n, 7, 7)
    assert tracker.x.dtype == tracker.P.dtype == np.float64
    for i, track in enumerate(oracle.tracks):
        assert tracker.x[i].tobytes() == track.x.tobytes()
        assert tracker.P[i].tobytes() == track.P.tobytes()
        assert boxes_from_states(tracker.x[i:i + 1]).tobytes() == \
            np.array([box_from_state(track.x)]).tobytes()


class TestTracker:
    def det(self, x, y, w=20, h=10):
        return Detection(box=(int(x), int(y), w, h), area=w * h)

    def test_noop(self):
        tracker = SortTracker()
        tracker.step([])
        assert tracker.tracks == []

    def test_single_object_keeps_one_id(self):
        tracker = SortTracker()
        ids = set()
        for k in range(10):
            tracker.step([self.det(10 + 5 * k, 20)])
            assert len(tracker.tracks) == 1
            ids.add(tracker.tracks[0].id)
        assert ids == {1}
        assert tracker.tracks[0].hits == 10

    def test_crossing_objects_keep_ids(self):
        tracker = SortTracker()
        id_by_row = {}
        for k in range(20):
            # per-frame steps stay under ~0.54 * width so the IOU gate holds
            a = self.det(10 + 6 * k, 20, w=30, h=12)   # moving right on row 20
            b = self.det(170 - 6 * k, 60, w=14, h=8)   # moving left on row 60
            tracker.step([a, b] if k % 2 == 0 else [b, a])
            rows = {round(t.center[1]): t.id for t in tracker.tracks}
            if not id_by_row:
                id_by_row = rows
            assert rows == id_by_row
        assert len(id_by_row) == 2

    def test_track_removed_after_max_age(self):
        tracker = SortTracker(CountParams(max_age=2))
        tracker.step([self.det(50, 50)])
        for _ in range(3):
            tracker.step([])
        assert tracker.tracks == []

    def test_ids_never_reused(self):
        tracker = SortTracker(CountParams(max_age=0))
        seen = []
        for burst in range(4):
            tracker.step([self.det(30 + burst, 40)])
            seen.append(tracker.tracks[0].id)
            tracker.step([])  # miss
            tracker.step([])  # removed
        assert seen == [1, 2, 3, 4]

    def test_one_solve_per_step(self, monkeypatch):
        dets = [self.det(10, 10), self.det(60, 40), self.det(110, 70)]
        tracker = SortTracker()
        tracker.step(dets)
        solve, calls = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(a) or solve(*a))
        tracker.step(dets)
        assert [t.hits for t in tracker.tracks] == [2, 2, 2]
        assert len(calls) == 1

    def test_non_finite_predict_names_first_track(self):
        tracker = SortTracker()
        tracker.step([self.det(10, 10), Detection(box=(math.nan, 40, 20, 10), area=200),
                      Detection(box=(110, math.nan, 20, 10), area=200), self.det(150, 100)])
        with pytest.raises(AerotraceError, match="^track 2 diverged$") as exc:
            tracker.step([])
        assert type(exc.value) is AerotraceError  # not a data error: exit 2, plain message

    def test_non_finite_update_names_first_track_in_match_order(self):
        """A NaN x edge still overlaps (``iou_matrix`` keeps the predicted edge),
        so both NaN detections match; track 3's is matched before track 1's."""
        a, b, c = self.det(10, 10), self.det(60, 40), self.det(110, 70)
        tracker = SortTracker()
        tracker.step([a, b, c])
        nan_a, nan_c = (Detection(box=(math.nan, *d.box[1:]), area=d.area) for d in (a, c))
        with pytest.raises(AerotraceError, match="^track 3 diverged$") as exc:
            tracker.step([nan_c, b, nan_a])
        assert type(exc.value) is AerotraceError


@st.composite
def box_sets(draw):
    """Integer (x, y, w, h) detections and tracks, either side possibly empty.
    Some tracks copy a detection exactly, so IOUs tie at 1, and boxes are
    dense enough that one box often overlaps several."""
    boxes = st.tuples(*[st.integers(0, 40)] * 2, *[st.integers(1, 15)] * 2)
    dets = draw(st.lists(boxes, max_size=7))
    copies = st.sampled_from(dets) if dets else boxes
    tracks = draw(st.lists(st.one_of(boxes, copies), max_size=7))
    return (np.array(dets, dtype=float).reshape(-1, 4),
            np.array(tracks, dtype=float).reshape(-1, 4))


def spy_on_solver(monkeypatch):
    calls = []
    monkeypatch.setattr(traffic_count, "hungarian",
                        lambda cost: calls.append(cost) or hungarian(cost))
    return calls


class TestAssociate:
    @pytest.mark.parametrize("gate", [0.3, 0.5, 1.0, 0.0, -0.1])
    @given(box_sets())
    def test_equals_the_gated_solve(self, gate, boxes):
        iou_mat = iou_matrix(*boxes)
        expected = [(d, t) for d, t in hungarian(1.0 - iou_mat) if iou_mat[d, t] >= gate]
        got = associate(iou_mat, gate)
        assert got == expected
        assert all(type(d) is int and type(t) is int for d, t in got)

    def test_disjoint_overlaps_make_no_solve(self, monkeypatch):
        calls = spy_on_solver(monkeypatch)
        dets = np.array([[0, 0, 10, 10], [50, 0, 10, 10], [100, 0, 10, 10]], dtype=float)
        tracks = np.array([[102, 1, 10, 10], [200, 0, 10, 10], [1, 1, 10, 10]], dtype=float)
        assert associate(iou_matrix(dets, tracks), 0.3) == [(0, 2), (2, 0)]
        assert calls == []

    @pytest.mark.parametrize("tracks, gate", [
        ([[0, 0, 10, 10], [4, 0, 10, 10]], 0.3),  # one detection overlaps two tracks
        ([[0, 0, 10, 10], [50, 0, 10, 10]], 0.0),  # pairs of no overlap pass the gate
    ])
    def test_shared_overlaps_or_a_gate_of_zero_solve_once(self, monkeypatch, tracks, gate):
        calls = spy_on_solver(monkeypatch)
        dets = np.array([[1, 0, 10, 10]], dtype=float)
        assert associate(iou_matrix(dets, np.array(tracks, dtype=float)), gate) == [(0, 0)]
        assert len(calls) == 1

    def test_a_gate_within_the_solver_tie_tolerance_solves(self, monkeypatch):
        """An IOU of 1e-13 ties with no overlap inside the solver, which takes
        the first column; a gate of 1e-14 must leave that choice to it."""
        calls = spy_on_solver(monkeypatch)
        iou_mat = np.array([[0.0, 0.0, 1e-13]])
        assert hungarian(1.0 - iou_mat) == [(0, 0)]
        assert associate(iou_mat, 1e-14) == []
        assert len(calls) == 1

    def test_tracker_step_goes_through_the_module_solver(self, monkeypatch):
        calls = spy_on_solver(monkeypatch)
        tracker = SortTracker()
        tracker.step([Detection(box=(0, 0, 10, 10), area=100),
                      Detection(box=(40, 0, 10, 10), area=100)])
        tracker.step([Detection(box=(1, 0, 10, 10), area=100),
                      Detection(box=(41, 0, 10, 10), area=100)])
        assert calls == [] and [t.hits for t in tracker.tracks] == [2, 2]
        tracker.step([Detection(box=(5, 0, 40, 10), area=400)])  # overlaps both
        assert len(calls) == 1


@st.composite
def detection_runs(draw):
    """Detections of boxes moving and growing or shrinking at constant rates,
    each alive from a birth frame for some frames. A box jitters, goes missing
    now and then, and jumps out of the IOU gate now and then; each frame lists
    its boxes in a random order, and frames may be empty."""
    n_frames = draw(st.integers(1, 20))
    boxes = draw(st.lists(st.tuples(
        st.integers(0, 150), st.integers(0, 150), st.integers(-8, 8), st.integers(-8, 8),
        st.integers(1, 30), st.integers(1, 30), st.integers(-3, 3), st.integers(0, n_frames - 1),
        st.integers(1, n_frames)), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for k in range(n_frames):
        dets = []
        for x0, y0, vx, vy, w, h, grow, birth, life in boxes:
            roll = rng.random()
            if not birth <= k < birth + life or roll < 0.1:
                continue
            t = k - birth
            jx, jy, jw, jh = rng.integers(-2, 3, 4).tolist()
            jump = 300 if roll > 0.9 else 0
            w, h = max(1, w + grow * t + jw), max(1, h + grow * t + jh)
            dets.append(Detection(box=(x0 + vx * t + jx + jump, y0 + vy * t + jy, w, h),
                                  area=w * h))
        frames.append([dets[i] for i in rng.permutation(len(dets))])
    return frames


class TestTrackerOracle:
    @given(detection_runs(), st.integers(0, 5))
    def test_matches_per_track_oracle(self, frames, max_age):
        params = CountParams(max_age=max_age)
        tracker, oracle = SortTracker(params), SortTrackerOracle(params)
        for dets in frames:
            tracker.step(dets)
            oracle.step(dets)
            assert_trackers_equal(tracker, oracle)

    def test_shrinking_box_clamps_area_velocity(self):
        """Twice the area velocity outruns the area, and predict zeroes it."""
        tracker, oracle = SortTracker(), SortTrackerOracle()
        clamped = 0
        for w in [40, 30, 20, 12, 6, 2, None, None, None]:
            clamped += int((tracker.x[:, 2] + tracker.x[:, 6] <= 0).sum())
            dets = [] if w is None else [Detection(box=(50 - w // 2,) * 2 + (w, w), area=w * w)]
            tracker.step(dets)
            oracle.step(dets)
            assert_trackers_equal(tracker, oracle)
        assert clamped == 2

    @pytest.mark.parametrize("noise", [8, 12])
    def test_synthetic_scene_matches(self, noise):
        script = replace(scene([ltr(30), rtl(120)], duration=9), noise=noise)
        model = BackgroundModel(324, 182)
        tracker, oracle = SortTracker(), SortTrackerOracle()
        matched = 0
        for frame in scene_frames(script, seed=5):
            dets = extract_detections(model.update(frame))
            tracker.step(dets)
            oracle.step(dets)
            assert_trackers_equal(tracker, oracle)
            matched += sum(t.misses == 0 and t.hits > 1 for t in tracker.tracks)
        assert matched > 0


def count_crossings(path, line, repeats=None):
    """(path index, direction) events of ``crossing_step`` folded over ``path``
    as the counter applies it to a track, once per frame; ``repeats[i]`` more
    frames at point i stand for frames in which the track is not matched."""
    counted: set[int] = set()
    off_line, events = path[0], []
    for i, center in enumerate(path):
        for _ in range(1 + (repeats[i] if repeats else 0)):
            off_line, d = crossing_step(line, off_line, center, counted)
            if d is not None:
                events.append((i, d))
    return events


def scan_whole_path(path, line):
    """Reference: the whole-path scan the counter ran while a track kept its
    whole path. Each step's chord runs from the last earlier point off the
    line, or the first point, to the step's end."""
    counted: set[int] = set()
    events = []
    for i in range(1, len(path)):
        j = i - 1
        while j > 0 and line.side(path[j]) == 0:
            j -= 1
        d = segment_crossing(line, path[j], path[i])
        if d is not None and d not in counted:
            counted.add(d)
            events.append((i, d))
    return events


class TestCrossings:
    line = CountLine(p1=(10.0, 0.0), p2=(10.0, 20.0))

    def test_one_sided_path(self):
        path = [(2.0, y) for y in range(5)]
        assert count_crossings(path, self.line) == []

    def test_single_crossing_sign(self):
        # side(p) = -dy*(px-10) with dy=20: left is positive
        right = count_crossings([(8.5, 5.0), (11.5, 5.0)], self.line)
        assert right == [(1, DIR_DOWN)]
        left = count_crossings([(11.5, 5.0), (8.5, 5.0)], self.line)
        assert left == [(1, DIR_UP)]

    def test_dither_capped_per_direction(self):
        xs = [8.5, 11.5, 8.5, 11.5, 8.5, 11.5]
        path = [(x, 5.0) for x in xs]
        events = count_crossings(path, self.line)
        assert len(events) == 2
        assert {d for _, d in events} == {DIR_UP, DIR_DOWN}

    def test_crossing_outside_segment_ignored(self):
        # sign flips but the move passes beyond the line's far endpoint
        assert segment_crossing(self.line, (8.5, 30.0), (11.5, 30.0)) is None

    def test_touch_does_not_count(self):
        assert segment_crossing(self.line, (8.5, 5.0), (10.0, 5.0)) is None

    @pytest.mark.parametrize("path", [
        [(8.5, 5.0), (10.0, 5.0), (8.5, 5.0)],
        [(8.0, 5.0), (10.0, 5.0), (10.0, 6.0), (10.0, 4.0), (9.0, 7.0)],
        [(10.0, 5.0), (11.5, 5.0), (10.0, 5.0), (11.5, 6.0)],
    ])
    def test_touch_and_back_counts_zero(self, path):
        assert count_crossings(path, self.line) == []

    @pytest.mark.parametrize("path, event", [
        ([(8.5, 5.0), (10.0, 5.0), (11.5, 5.0)], (2, DIR_DOWN)),
        ([(11.5, 5.0), (10.0, 5.0), (10.0, 6.0), (8.5, 7.0)], (3, DIR_UP)),
        ([(10.0, 5.0), (8.5, 5.0), (10.0, 5.0), (11.5, 5.0)], (3, DIR_DOWN)),
    ])
    def test_a_point_on_the_line_still_crosses(self, path, event):
        assert count_crossings(path, self.line) == [event]

    def test_a_point_on_the_line_beyond_the_segment_does_not_cross(self):
        assert count_crossings([(8.5, 25.0), (10.0, 25.0), (11.5, 25.0)], self.line) == []

    @pytest.mark.parametrize("p1, p2", [((math.nan, 0.0), (math.nan, 182.0)),
                                        ((0.0, math.inf), (8.0, 6.0)),
                                        ((0.0, 0.0), (-math.inf, 6.0)),
                                        ((1e308, 0.0), (-1e308, 182.0)),
                                        ((0.0, 0.0), (1e308, 1e308))])
    def test_non_finite_endpoint_rejected(self, p1, p2):
        with pytest.raises(DataError, match="finite"):
            CountLine(p1=p1, p2=p2)

    coord = st.floats(-MAX_LINE_COORD, MAX_LINE_COORD)
    pixel = st.floats(0, 65535)

    # The largest |side()|: a direction of 2e150 along one axis, and the point
    # at the far edge of the frame range on the other.
    @example((-MAX_LINE_COORD, -MAX_LINE_COORD, MAX_LINE_COORD, -MAX_LINE_COORD), (0, 65535))
    @example((MAX_LINE_COORD, MAX_LINE_COORD, MAX_LINE_COORD, -MAX_LINE_COORD), (0, 0))
    @given(st.tuples(coord, coord, coord, coord), st.tuples(pixel, pixel))
    def test_side_finite_within_bound(self, ends, p):
        assume(ends[:2] != ends[2:])
        assert math.isfinite(CountLine(p1=ends[:2], p2=ends[2:]).side(p))


# Small integer grids around the line hit proper crossings, touches and
# passes beyond the endpoints alike.
paths = st.lists(st.tuples(st.integers(0, 20), st.integers(-5, 25)), min_size=1, max_size=30)


class TestCrossingStepProperties:
    lines = st.sampled_from([CountLine(p1=(10.0, 0.0), p2=(10.0, 20.0)),
                             CountLine(p1=(0.0, 0.0), p2=(20.0, 20.0)),
                             CountLine(p1=(17.0, 2.0), p2=(3.0, 19.0))])
    point = st.tuples(st.integers(-5, 25), st.integers(-5, 25))

    @given(lines, paths, st.lists(st.integers(0, 3), min_size=30, max_size=30))
    @example(CountLine(p1=(10.0, 0.0), p2=(10.0, 20.0)), [(8, 5), (10, 5), (10, 6), (12, 5)],
             [1, 2, 1, 1] + [0] * 26)
    def test_two_points_and_unmatched_frames_match_the_whole_path_scan(
            self, line, path, repeats):
        events = count_crossings(path, line, repeats)
        assert events == scan_whole_path(path, line)
        assert len({d for _, d in events}) == len(events) <= 2

    @given(lines, point, point, st.integers(1, 12))
    @example(CountLine(p1=(10.0, 0.0), p2=(10.0, 20.0)), (6, 5), (14, 5), 4)
    @example(CountLine(p1=(0.0, 0.0), p2=(20.0, 20.0)), (4, 8), (8, 4), 2)
    def test_straight_path_through_the_segment_counts_once(self, line, a, b, n):
        # A path from a to b in n equal steps; with integer ends, some of its
        # points land exactly on the line.
        direction = segment_crossing(line, a, b)
        assume(direction is not None)
        path = [(a[0] + (b[0] - a[0]) * k / n, a[1] + (b[1] - a[1]) * k / n)
                for k in range(n + 1)]
        events = count_crossings(path, line)
        assert [d for _, d in events] == [direction]


def run_scene(script, params=CountParams()):
    return count_frames(scene_frames(script), LINE_324, start=script.start,
                        fps=script.fps, params=params)


class TestSceneCounting:
    @pytest.mark.parametrize("width", [19, 30])
    @pytest.mark.parametrize("speed", [24, 32, 48, 96])
    def test_every_start_phase_counts_the_car_once(self, width, speed):
        # An odd-width car has an integer centre, which lands exactly on the
        # integer-x line in some phases; each phase shifts the start by a
        # tenth of a frame step.
        line = CountLine(p1=(160.0, 0.0), p2=(160.0, 119.0))
        counted = []
        for phase in range(10):
            x0 = -width - 2.0 * speed - phase * speed / 100
            car = SceneObject("car", width, 14, x0, 50.0, float(speed), 0.0, 220)
            script = scene([car], duration=math.ceil((200 - x0) / speed), width=320,
                           height=120)
            counts = count_frames(scene_frames(script), line, start=T0, fps=10)
            counted.append((sum(counts.down), sum(counts.up)))
        assert counted == [(1, 0)] * 10

    def test_empty_scene_counts_zero(self):
        counts = run_scene(scene([], duration=5))
        assert counts.up == (0,) and counts.down == (0,)

    def test_left_to_right(self):
        counts = run_scene(scene([ltr(80)], duration=9))
        assert counts.down == (1,) and counts.up == (0,)

    def test_right_to_left(self):
        counts = run_scene(scene([rtl(80)], duration=9))
        assert counts.up == (1,) and counts.down == (0,)

    def test_both_directions(self):
        counts = run_scene(scene([ltr(30), rtl(120)], duration=9))
        assert counts.up == (1,) and counts.down == (1,)

    def test_fps_doubling_same_counts(self):
        objs = [ltr(30), rtl(120)]
        slow = run_scene(scene(objs, duration=9, fps=10))
        fast = run_scene(scene(objs, duration=9, fps=20))
        assert slow.up == fast.up and slow.down == fast.down

    def test_start_too_late_for_the_video(self):
        frames = [np.zeros((6, 8), dtype=np.uint8)] * 60
        start = datetime(9999, 12, 31, 23, 59, 30, tzinfo=UTC)
        with pytest.raises(DataError, match=r"9999-12-31T23:59:30Z.* 60 s"):
            count_frames(frames, LINE_324, start=start, fps=1)

    def test_video_start_too_late_fails_before_reading(self, tmp_path, monkeypatch):
        path = tmp_path / "minute.fseq"
        write_fseq(path, np.zeros((60, 6, 8), dtype=np.uint8), fps=1)
        drawn = []

        def spy(p):
            info, frames = iter_fseq_frames(p)
            return info, (drawn.append(k) or frame for k, frame in enumerate(frames))

        monkeypatch.setattr(traffic_count, "iter_fseq_frames", spy)
        start = datetime(9999, 12, 31, 23, 59, 30, tzinfo=UTC)
        with pytest.raises(DataError, match=r"9999-12-31T23:59:30Z.* 60 s"):
            count_video(path, LINE_324, start=start)
        assert drawn == []

    def test_hour_bucketing(self):
        start = datetime(2022, 7, 1, 15, 59, 0, tzinfo=UTC)
        hour1 = [SceneObject(f"a{i}", 24, 14, 68.0 - 60.0 * t, 40.0, 60.0, 0.0, 220)
                 for i, t in enumerate([5.05, 11.05, 17.05, 23.05, 29.05, 35.05, 41.05])]
        hour2 = [SceneObject(f"b{i}", 24, 14, 68.0 - 60.0 * t, 40.0, 60.0, 0.0, 220)
                 for i, t in enumerate([65.05, 72.05, 79.05])]
        script = SceneScript(width=160, height=100, fps=10, duration_s=85,
                             background=30, start=start, objects=tuple(hour1 + hour2))
        line = CountLine(p1=(80.0, 0.0), p2=(80.0, 99.0))
        counts = count_frames(scene_frames(script), line, start=start, fps=10)
        assert [h.hour for h in counts.hours] == [15, 16]
        assert [u + d for u, d in zip(counts.up, counts.down)] == [7, 3]


class TestFrameChecks:
    @pytest.mark.parametrize("first, message", [
        (np.zeros((2, 20, 20), dtype=np.uint8),
         r"^frame is \(2, 20, 20\), model expects \(height, width\)$"),
        (np.zeros((20,), dtype=np.uint8), r"^frame is \(20,\), model expects \(height, width\)$"),
        (np.zeros((0, 20), dtype=np.uint8), r"^frame is \(0, 20\), model expects \(height, width\)$"),
        (np.zeros((20, 0), dtype=np.uint8), r"^frame is \(20, 0\), model expects \(height, width\)$"),
        ([[0] * 20] * 20, r"^frames must be uint8 arrays, got list$"),
        (np.zeros((20, 20), dtype=np.int16), r"^frames must be uint8, got int16$"),
    ])
    def test_a_first_frame_that_is_not_a_uint8_image_is_a_data_error(self, first, message):
        with pytest.raises(DataError, match=message):
            count_frames([first], LINE_324, start=T0, fps=10)


# -- The background process ---------------------------------------------------

def collect_masks(masks):
    """A copy of each mask, since a yielded mask is valid only until the next
    is asked for, and the message of the DataError that ended them, if any."""
    copies = []
    try:
        for mask in masks:
            copies.append(mask.copy())
    except DataError as exc:
        return copies, str(exc)
    return copies, None


def assert_piped_masks_match_the_model(frames, params=CountParams()):
    h, w = frames[0].shape
    model = BackgroundModel(w, h, params.pixel_threshold, params.min_stability)
    expected, expected_error = collect_masks(model.update(frame) for frame in frames)
    piped = background_masks(iter(frames), params)
    try:
        masks, error = collect_masks(piped)
    finally:
        piped.close()
    assert error == expected_error
    # The pipeline reads frame k + 1 before it yields mask k, so an error ends
    # it one mask before the model's.
    assert len(masks) == len(expected) - (error is not None) > 0
    for k, (mask, want) in enumerate(zip(masks, expected)):
        assert mask.dtype == bool and np.array_equal(mask, want), f"frame {k}"
    assert_no_child_left()
    return error


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def levels(shape, runs, seed=0):
    """Frames of one level per run, plus seeded noise of +-8."""
    rng = np.random.default_rng(seed)
    return [np.clip(level + rng.integers(-8, 9, shape), 0, 255).astype(np.uint8)
            for level, length in runs for _ in range(length)]


class TestBackgroundProcess:
    def test_masks_of_a_synthesized_scene_match_the_model(self):
        frames = list(scene_frames(replace(scene([ltr(30), rtl(120)], duration=9), noise=8),
                                   seed=5))
        assert assert_piped_masks_match_the_model(frames) is None

    def test_masks_through_an_illumination_step_match_the_model(self):
        frames = levels((12, 16), [(40, 20), (100, 20), (60, 3), (200, 9)])
        assert assert_piped_masks_match_the_model(frames, CountParams(min_stability=4)) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_streams_shorter_than_the_ring_match_the_model(self, n):
        assert assert_piped_masks_match_the_model(levels((3, 5), [(90, n)])) is None

    def test_a_frame_shape_change_ends_the_masks_where_the_model_fails(self):
        frames = levels((12, 16), [(40, 20)]) + levels((12, 17), [(40, 1)]) \
            + levels((12, 16), [(40, 3)])
        error = assert_piped_masks_match_the_model(frames)
        assert error == "frame is (12, 17), model expects (12, 16)"

    def test_a_normal_end_leaves_no_child(self):
        counts = run_scene(scene([ltr(80)], duration=9))
        assert counts.down == (1,)
        assert_no_child_left()

    def test_a_bad_frame_mid_stream_leaves_no_child(self):
        frames = levels((6, 8), [(40, 5)]) + [np.zeros((6, 8), dtype=np.float32)]
        with pytest.raises(DataError, match=r"^frames must be uint8, got float32$") as raised:
            count_frames(frames + levels((6, 8), [(40, 5)]), LINE_324, start=T0, fps=10)
        assert_no_child_left()
        assert raised.value

    def test_a_truncated_fseq_leaves_no_child(self, tmp_path, monkeypatch):
        path = tmp_path / "cut.fseq"
        write_fseq(path, np.zeros((6, 200, 200), dtype=np.uint8), fps=1)

        def cut_after_frame_2(p):
            info, frames = iter_fseq_frames(p)

            def gen():
                for k, frame in enumerate(frames):
                    if k == 2:
                        os.truncate(p, HEADER_SIZE + 3 * info.frame_bytes + 700)
                    yield frame
            return info, gen()

        monkeypatch.setattr(traffic_count, "iter_fseq_frames", cut_after_frame_2)
        with pytest.raises(DataError, match=r"cut\.fseq: frame 3: read \d+ of 40000 bytes$") \
                as raised:
            count_video(path, LINE_324, start=T0)
        assert_no_child_left()
        assert raised.value

    def test_a_tracker_error_in_the_parent_leaves_no_child(self, monkeypatch):
        def fail(self, detections):
            raise RuntimeError("tracker failed")

        monkeypatch.setattr(SortTracker, "step", fail)
        with pytest.raises(RuntimeError, match="tracker failed") as raised:
            run_scene(scene([ltr(80)], duration=2))
        assert_no_child_left()
        assert raised.value

    def test_an_error_in_the_child_is_one_message_and_exit_2(self, tmp_path, monkeypatch):
        update = BackgroundModel.update
        seen = []

        def fail_at_frame_3(self, frame):
            seen.append(1)
            if len(seen) > 3:
                raise RuntimeError("model failed")
            return update(self, frame)

        monkeypatch.setattr(BackgroundModel, "update", fail_at_frame_3)
        frames = levels((6, 8), [(40, 10)])
        with pytest.raises(AerotraceError, match=r"^the background process exited with "
                                                 r"status 1 at frame 3$") as raised:
            count_frames(frames, LINE_324, start=T0, fps=10)
        assert_no_child_left()
        assert raised.value and seen == []  # the model ran in the child only

        path = tmp_path / "scene.fseq"
        write_fseq(path, np.stack(frames), fps=10)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["count", "--in", str(path), "--line", "4,0,4,5", "--start",
                         "2022-07-01T16:00:00Z"])
        assert code == EXIT_DATA and out.getvalue() == ""
        assert err.getvalue() == ("aerotrace: the background process exited with status 1 "
                                  "at frame 3\n")
        assert_no_child_left()


def processes():
    """(pid, state, parent pid, process group) of every process, from /proc."""
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                state, ppid, pgrp = (entry / "stat").read_text().rpartition(")")[2].split()[:3]
            except (OSError, ValueError):
                continue  # gone since the listing
            yield int(entry.name), state, int(ppid), int(pgrp)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGINT], ids=["SIGKILL", "SIGINT"])
def test_a_killed_count_leaves_no_process(tmp_path, sig):
    """``count`` in its own session, signalled once its background process
    runs: within 2 s no process of that session's group is left. A process
    that has exited but waits for init to reap it (state Z, which some
    container inits leave for over a second) counts as gone."""
    rng = np.random.default_rng(0)
    frames = np.full((800, 64, 64), 30, dtype=np.uint8)
    for t in range(20, len(frames)):  # ten squares at random: many tracks, slow to count
        for y, x in rng.integers(0, 61, (10, 2)):
            frames[t, y:y + 3, x:x + 3] = 220
    write_fseq(tmp_path / "slow.fseq", frames, fps=10)
    src = str(Path(traffic_count.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "aerotrace.cli", "count", "--in", str(tmp_path / "slow.fseq"),
         "--line", "32,0,32,63", "--min-area", "1", "--out", str(tmp_path / "counts.csv")],
        env=env, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pgid = proc.pid
    try:
        deadline = time.monotonic() + 30
        while not any(ppid == proc.pid for _, _, ppid, _ in processes()):
            assert proc.poll() is None, "count ended before its background process was seen"
            assert time.monotonic() < deadline
            time.sleep(0.005)
        os.kill(proc.pid, sig)
        proc.wait(timeout=30)
        assert not (tmp_path / "counts.csv").exists()
        deadline = time.monotonic() + 2
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            if all(state == "Z" for _, state, _, pgrp in processes() if pgrp == pgid):
                break
            assert time.monotonic() < deadline, "a process of the killed count outlived it"
            time.sleep(0.01)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        proc.wait()
