import math
import random
import tracemalloc
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.sparse.linalg import spsolve

from aerotrace import calib_metrics
from aerotrace.calib_metrics import (
    align_pair, calibration_report, dtw, format_report, hp_filter, mape, moving_average, rmse,
    trend_match_score, warp_onto_reference)
from aerotrace.errors import DataError
from aerotrace.series import TimeSeries

from conftest import E0, T0, at, make_series, same_series


def validate_warp_path(path, n, m):
    """Check boundary, monotonicity, and single-step continuity."""
    assert path and path[0] == (0, 0) and path[-1] == (n - 1, m - 1)
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        assert (i1 - i0, j1 - j0) in ((1, 0), (0, 1), (1, 1))


def enumerate_path_costs(a, b):
    """Exhaustive minimum over all monotone continuous warp paths."""
    n, m = len(a), len(b)
    best = [math.inf]

    def walk(i, j, acc):
        acc += abs(a[i] - b[j])
        if acc >= best[0]:
            return
        if (i, j) == (n - 1, m - 1):
            best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def dtw_oracle(reference, test):
    """Row-by-row DTW fill and backtrack; ``dtw`` must match it bit for bit."""
    a = np.asarray(reference, dtype=float)
    b = np.asarray(test, dtype=float)
    n, m = a.size, b.size
    cost = np.abs(a[:, None] - b[None, :])
    D = np.empty((n, m))
    D[0, 0] = cost[0, 0]
    for i in range(1, n):
        D[i, 0] = D[i - 1, 0] + cost[i, 0]
    for j in range(1, m):
        D[0, j] = D[0, j - 1] + cost[0, j]
    for i in range(1, n):
        row = D[i]
        prev = D[i - 1]
        for j in range(1, m):
            row[j] = cost[i, j] + min(prev[j - 1], prev[j], row[j - 1])

    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = D[i - 1, j - 1], D[i - 1, j], D[i, j - 1]
            best = min(diag, up, left)
            if diag == best:
                i, j = i - 1, j - 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return float(D[n - 1, m - 1]), path


def warp_oracle(test, path, n_ref):
    """Per-step loop that ``warp_onto_reference`` must match bit for bit."""
    b = np.asarray(test, dtype=float)
    sums = np.zeros(n_ref)
    counts = np.zeros(n_ref)
    for i, j in path:
        sums[i] += b[j]
        counts[i] += 1
    return sums / counts


def sequence_pairs(elements):
    seq = arrays(float, st.integers(1, 40), elements=elements)
    return st.tuples(seq, seq)


# Tie-heavy integers, moderate reals, and full-range reals whose costs may overflow.
DTW_PAIRS = st.one_of(sequence_pairs(st.sampled_from([0.0, 1.0, 2.0])),
                      sequence_pairs(st.floats(-1e6, 1e6)),
                      sequence_pairs(st.floats(allow_nan=False, allow_infinity=False)))


class TestDtw:
    @settings(deadline=None, max_examples=300)
    @given(DTW_PAIRS)
    @example((np.array([1.0]), np.array([0.0, 2.0, 1.0, 1.0])))
    @example((np.array([2.0, 0.0, 1.0]), np.array([1.0])))
    @example((np.array([1.0]), np.array([1.0])))
    def test_matches_row_by_row_oracle(self, pair):
        a, b = pair
        try:
            with np.errstate(over="raise"):
                expected_dist, expected_path = dtw_oracle(a, b)
        except FloatingPointError:  # the same cells overflow in both fills
            with pytest.raises(DataError, match=f"^dtw of {a.size} x {b.size} points "
                                                "overflows: values too large for float64$"):
                dtw(a, b)
            return
        dist, path = dtw(a, b)
        with np.errstate(over="ignore"):
            warped = warp_onto_reference(b, path, a.size)
            expected_warped = warp_oracle(b, path, a.size)
        assert np.float64(dist).tobytes() == np.float64(expected_dist).tobytes()
        assert path == expected_path
        assert warped.tobytes() == expected_warped.tobytes()

    @pytest.mark.parametrize("a, b", [
        ([math.nan, 1.0, 2.0], [1.0, 2.0]),
        ([math.inf, 1.0], [math.inf, 1.0]),
        ([1.0, 2.0], [1.0, -math.inf]),
    ])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(DataError, match="finite"):
            dtw(a, b)

    def test_identical_series(self):
        dist, path = dtw([3, 1, 4, 1, 5], [3, 1, 4, 1, 5])
        assert dist == 0.0
        assert path == [(i, i) for i in range(5)]

    def test_hand_worked_case(self):
        dist, _ = dtw([1, 2, 3], [1, 3])
        assert dist == 1.0

    def test_matches_exhaustive_enumeration(self):
        rnd = random.Random(17)
        for _ in range(100):
            n, m = rnd.randint(1, 6), rnd.randint(1, 6)
            a = [rnd.uniform(-10, 10) for _ in range(n)]
            b = [rnd.uniform(-10, 10) for _ in range(m)]
            dist, path = dtw(a, b)
            assert dist == pytest.approx(enumerate_path_costs(a, b), abs=1e-9)
            validate_warp_path(path, n, m)

    def test_symmetry(self):
        rnd = random.Random(23)
        for _ in range(50):
            a = [rnd.uniform(0, 5) for _ in range(rnd.randint(1, 8))]
            b = [rnd.uniform(0, 5) for _ in range(rnd.randint(1, 8))]
            assert dtw(a, b)[0] == pytest.approx(dtw(b, a)[0], abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="^dtw needs two non-empty sequences$"):
            dtw([], [1.0])

    @pytest.mark.parametrize("a, b", [
        ([1e308, -1e308], [-1e308, 1e308]),  # a cost overflows
        ([0.0, 1.7e308, 1.7e308], [0.0, 1.7e308, 1.7e308]),  # a sum off the best path does
    ])
    def test_overflow_is_a_data_error(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^dtw of {len(a)} x {len(b)} points overflows: "
                                                "values too large for float64$"):
                dtw(a, b)

    def test_a_table_over_the_limit_is_refused_before_it_is_allocated(self):
        a, b = np.zeros(calib_metrics.MAX_DTW_CELLS // 1000 + 1), np.zeros(1000)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"^dtw of 100001 x 1000 points needs 100001000 "
                                                r"cells, over the limit of 100000000$"):
                dtw(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_path_invariants_random(self):
        rnd = random.Random(31)
        for _ in range(100):
            n, m = rnd.randint(1, 20), rnd.randint(1, 20)
            a = [rnd.gauss(0, 1) for _ in range(n)]
            b = [rnd.gauss(0, 1) for _ in range(m)]
            _, path = dtw(a, b)
            validate_warp_path(path, n, m)


class TestWarp:
    def test_diagonal_identity(self):
        path = [(i, i) for i in range(4)]
        out = warp_onto_reference([1.0, 2.0, 3.0, 4.0], path, 4)
        assert list(out) == [1.0, 2.0, 3.0, 4.0]

    def test_one_test_to_two_refs(self):
        # test index 1 serves reference indices 1 and 2
        path = [(0, 0), (1, 1), (2, 1), (3, 2)]
        out = warp_onto_reference([5.0, 7.0, 9.0], path, 4)
        assert list(out) == [5.0, 7.0, 7.0, 9.0]

    def test_two_tests_to_one_ref_averaged(self):
        # reference index 1 absorbs test indices 1 and 2
        path = [(0, 0), (1, 1), (1, 2), (2, 3)]
        out = warp_onto_reference([1.0, 10.0, 20.0, 2.0], path, 3)
        assert list(out) == [1.0, 15.0, 2.0]

    @pytest.mark.parametrize("path, n_ref", [
        ([(0, 0), (2, 1)], 3),
        ([(0, 0), (1, 1), (2, 1)], 2),
        ([], 2),
    ])
    def test_path_must_cover_exactly_the_reference(self, path, n_ref):
        with pytest.raises(DataError, match="does not cover every reference index"):
            warp_onto_reference([1.0, 2.0], path, n_ref)


def moving_average_oracle(series, window):
    """The running-sum loop on numpy scalars that ``moving_average`` used to run."""
    w = window.total_seconds()
    times, vals = series.epoch, series.values
    out = np.empty(len(vals))
    left = 0
    acc = 0.0
    for i in range(len(vals)):
        acc += vals[i]
        while times[left] <= times[i] - w:
            acc -= vals[left]
            left += 1
        out[i] = acc / (i - left + 1)
    return out


class TestMovingAverage:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
               st.lists(st.integers(1, 900), min_size=1, max_size=80).map(
                   lambda steps: E0 + np.cumsum(steps)),
               st.lists(st.integers(-62135596800, 253402300799), min_size=1, max_size=40,
                        unique=True).map(sorted)),
           st.data(),
           st.one_of(st.integers(1, 7200).map(lambda s: timedelta(seconds=s)),
                     st.floats(1e-3, 1e12).map(lambda s: timedelta(seconds=s))))
    def test_matches_the_numpy_scalar_loop(self, epoch, data, window):
        values = data.draw(st.lists(st.floats(-1e12, 1e12), min_size=len(epoch),
                                    max_size=len(epoch)))
        s = TimeSeries(epoch, values)
        assert moving_average(s, window).values.tobytes() == \
            moving_average_oracle(s, window).tobytes()

    def test_constant_unchanged(self):
        s = make_series([5, 5, 5, 5], step_s=60)
        assert same_series(moving_average(s, timedelta(minutes=10)), s)

    def test_ten_minute_window(self):
        s = make_series(range(10), step_s=60)
        out = moving_average(s, timedelta(minutes=10))
        assert out.values[-1] == pytest.approx(4.5)  # covers minutes 0..9

    def test_window_smaller_than_spacing(self):
        s = make_series([3, 9, 27], step_s=600)
        assert same_series(moving_average(s, timedelta(seconds=1)), s)

    def test_trailing_window_excludes_future(self):
        s = make_series([0, 100], step_s=60)
        out = moving_average(s, timedelta(minutes=10))
        assert out.values[0] == 0.0

    def test_overflow_is_a_data_error(self):
        s = make_series([1e308, 1.7e308, 1e308, 5.0], step_s=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^moving average of 4 points overflows: "
                                                "values too large for float64$"):
                moving_average(s, timedelta(minutes=2))

    def test_bounded_by_input(self):
        rnd = random.Random(2)
        values = [rnd.uniform(-50, 50) for _ in range(100)]
        s = make_series(values, step_s=37)
        out = moving_average(s, timedelta(minutes=3))
        assert min(values) <= min(out.values)
        assert max(out.values) <= max(values)


class TestErrorMetrics:
    def test_mape_zero_for_identity(self):
        assert mape([1, 2, 3], [1, 2, 3]).pct == 0.0

    def test_mape_hand_case(self):
        result = mape([10, 20], [11, 18])
        assert result.pct == pytest.approx(10.0)
        assert result.skipped == 0

    def test_mape_skips_zero_reference(self):
        result = mape([0, 10], [5, 10])
        assert result.pct == 0.0
        assert result.skipped == 1

    @pytest.mark.parametrize("a, b", [([1e-300, 1.0], [1e10, 1.0]), ([1.0, -1e308], [1.0, 1e308])])
    def test_mape_overflow_is_a_data_error(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^mape of 2 points overflows: values too large "
                                                "for float64$"):
                mape(a, b)

    def test_mape_all_zero_reference(self):
        with pytest.raises(DataError, match="^every reference value is zero$"):
            mape([0, 0], [1, 2])

    def test_rmse_zero_for_identity(self):
        assert rmse([4, 5, 6], [4, 5, 6]) == 0.0

    def test_rmse_hand_case(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5))

    @pytest.mark.parametrize("a, b", [([0.0, 0.0], [1e200, 0.0]), ([-1e308, 0.0], [1e308, 0.0])])
    def test_rmse_overflow_is_a_data_error(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^rmse of 2 points overflows: values too large "
                                                "for float64$"):
                rmse(a, b)

    def test_rmse_homogeneity(self):
        rnd = random.Random(6)
        a = [rnd.uniform(-5, 5) for _ in range(20)]
        b = [rnd.uniform(-5, 5) for _ in range(20)]
        base = rmse(a, b)
        for c in (2.0, -3.0, 0.5):
            scaled = rmse([c * x for x in a], [c * x for x in b])
            assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


def hp_filter_oracle(values, lam):
    """HP filter oracle: the sparse normal equations solved by ``spsolve``."""
    y = np.asarray(values, dtype=float)
    n = y.size
    eye = sparse.eye(n, format="csc")
    data = np.repeat([[1.0], [-2.0], [1.0]], n, axis=1)
    D = sparse.dia_matrix((data, [0, 1, 2]), shape=(n - 2, n)).tocsc()
    trend = spsolve(eye + lam * (D.T @ D), y)
    return trend, y - trend


def dense_hp_oracle(y, lam):
    n = len(y)
    D = np.zeros((n - 2, n))
    for i in range(n - 2):
        D[i, i], D[i, i + 1], D[i, i + 2] = 1.0, -2.0, 1.0
    A = np.eye(n) + lam * D.T @ D
    return np.linalg.solve(A, np.asarray(y, dtype=float))


class TestHpFilter:
    def test_linear_input_zero_cycle(self):
        y = [2.0 + 0.5 * t for t in range(40)]
        trend, cycle = hp_filter(y, 1600.0)
        assert np.max(np.abs(cycle)) < 1e-10
        assert trend == pytest.approx(y, abs=1e-10)

    def test_constant_input_zero_cycle(self):
        y = [7.0] * 12
        _, cycle = hp_filter(y, 1600.0)
        assert np.max(np.abs(cycle)) < 1e-10

    def test_matches_dense_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 51))
            lam = float(rng.choice([6.25, 129.0, 1600.0]))
            y = rng.normal(0, 3, size=n)
            trend, cycle = hp_filter(y, lam)
            expected = dense_hp_oracle(y, lam)
            assert np.max(np.abs(trend - expected)) < 1e-8
            assert np.allclose(cycle, y - trend)

    def test_first_order_optimality(self, rng):
        y = rng.normal(0, 2, size=30)
        lam = 1600.0
        trend, _ = hp_filter(y, lam)

        def objective(tau):
            d2 = np.diff(tau, n=2)
            return float(np.sum((y - tau) ** 2) + lam * np.sum(d2 ** 2))

        base = objective(trend)
        eps = 1e-4
        for i in range(len(y)):
            for sign in (+1, -1):
                tau = trend.copy()
                tau[i] += sign * eps
                assert objective(tau) >= base - 1e-12

    def test_too_short(self):
        with pytest.raises(DataError, match="^trend filter needs >= 4 points, got 3$"):
            hp_filter([1.0, 2.0, 3.0], 1600.0)

    def test_non_positive_lambda(self):
        with pytest.raises(DataError, match="^lambda must be positive and finite, got 0.0$"):
            hp_filter([1.0, 2.0, 3.0, 4.0], 0.0)

    @pytest.mark.parametrize("n, lam", [(4, 1e16), (4, 1e308), (60, 3e307), (1440, 1e308),
                                        (60, 1e12), (60, 1e15), (60, 1e50)])
    def test_lambda_without_finite_trend_rejected(self, rng, n, lam):
        # Past about 2.8e10 the solve keeps too few digits of the trend.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^lambda=\S+ is too large: above 2\.81e\+10 "
                                                "the trend is lost to rounding$"):
                hp_filter(rng.normal(10, 3, size=n), lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DataError, match="^hp_filter needs finite values$"):
            hp_filter([bad, 1.0, 2.0, 3.0, 4.0], 1600.0)

    def test_values_without_finite_trend_rejected(self):
        # The exact trend starts at 1.19 * 1.7e308, past the float64 maximum.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^no finite trend for 60 points at lambda=1: "
                                                "values too large for float64$"):
                hp_filter([1.7e308] * 3 + [-1.7e308] * 57, 1.0)

    def test_large_values_with_finite_trend_solved(self):
        # The exact trend peaks at 9.1e307. spsolve overflows to inf on these
        # values; the banded solve does not.
        y = np.array([1.7e308, -1.7e308] * 30)
        trend, _ = hp_filter(y, 1.0)
        expected = 1e300 * hp_filter_oracle(y / 1e300, 1.0)[0]
        assert np.max(np.abs(trend - expected)) < 1e-15 * 1.7e308

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
           st.floats(allow_nan=True, allow_infinity=True))
    def test_raises_only_data_error(self, values, lam):
        # The hand-written solve divides and multiplies Python floats, which
        # could raise ZeroDivisionError or OverflowError on an unchecked input.
        try:
            trend, _ = hp_filter(values, lam)
        except DataError:
            return
        assert np.isfinite(trend).all()

    @given(st.integers(4, 400).flatmap(
               lambda n: arrays(np.float64, n, elements=st.floats(-1e6, 1e6))),
           st.floats(0.0, 5.0))
    def test_matches_sparse_oracle(self, y, log_lam):
        lam = 10.0 ** log_lam  # log-uniform over 1 to 1e5
        trend, cycle = hp_filter(y, lam)
        expected = hp_filter_oracle(y, lam)[0]
        assert np.max(np.abs(trend - expected)) <= 1e-9 * max(1.0, np.max(np.abs(y)))
        assert np.array_equal(cycle, y - trend)


class TestTrendMatch:
    def test_identical_no_zeros(self):
        assert trend_match_score([1, -2, 3], [4, -5, 6]) == 100.0

    def test_two_of_three(self):
        assert trend_match_score([1, 1, -1], [1, -1, -1]) == pytest.approx(200 / 3)

    def test_antisymmetry(self):
        assert trend_match_score([1, -2, 3], [-1, 2, -3]) == 0.0

    def test_zero_matches_anything(self):
        assert trend_match_score([0.0, 0.0], [5.0, -5.0]) == 100.0

    def test_positive_scale_invariance(self, rng):
        a = rng.normal(0, 1, size=50)
        b = rng.normal(0, 1, size=50)
        base = trend_match_score(a, b)
        assert trend_match_score(3.7 * a, b) == base
        assert trend_match_score(a, 0.01 * b) == base


class TestAlignAndReport:
    def _ref_series(self, n=240, step_s=60):
        rnd = random.Random(121)
        values = [20 + 8 * math.sin(i / 15.0) + rnd.uniform(-0.5, 0.5) for i in range(n)]
        return make_series(values, step_s=step_s)

    def test_no_overlap(self):
        a = make_series([1, 2, 3, 4], step_s=60)
        b = make_series([1, 2, 3, 4], start=at(3600 * 24), step_s=60)
        with pytest.raises(DataError, match="^series do not share at least 2 grid buckets$"):
            align_pair(a, b)

    def test_identity_report(self):
        ref = self._ref_series()
        report = calibration_report(ref, ref)
        assert report.mape_pct == pytest.approx(0.0, abs=1e-12)
        assert report.rmse == pytest.approx(0.0, abs=1e-12)
        assert report.trend_match_pct == 100.0
        assert report.dtw_distance == pytest.approx(0.0, abs=1e-12)

    def test_scaled_report(self):
        # A 10% gain shift only survives the warp when the diagonal path is
        # the unique optimum, so use data whose step-to-step swings dwarf the
        # 10% offset; the diagonal is then asserted, and every later stage is
        # linear, making 10% MAPE exact.
        values = [25.0 + 5.0 * (-1) ** i + 0.01 * i for i in range(180)]
        ref = make_series(values, step_s=60)
        test = ref.with_values(tuple(1.1 * v for v in ref.values))
        ref_g, test_g = align_pair(ref, test)
        assert ref_g.epoch.tobytes() == test_g.epoch.tobytes()
        _, path = dtw(ref_g.values, test_g.values)
        assert path == [(i, i) for i in range(len(ref_g))]
        report = calibration_report(ref, test)
        assert report.mape_pct == pytest.approx(10.0, abs=1e-9)
        assert report.trend_match_pct == 100.0

    def test_report_records_provenance(self):
        ref = self._ref_series()
        report = calibration_report(ref, ref, window=timedelta(minutes=5), lam=100.0,
                                    grid_step_s=120)
        assert report.window_s == 300.0
        assert report.lam == 100.0
        assert report.grid_step_s == 120
        assert report.n_points == len(align_pair(ref, ref, 120)[0])
        lo, hi = report.data_range
        assert lo <= min(ref.values) + 1.0 and hi >= max(ref.values) - 1.0

    def test_report_text_matches_oracles(self, monkeypatch):
        rnd = np.random.default_rng(300)
        base = 20 + 8 * np.sin(np.arange(300) / 20.0)
        ref = make_series(base + rnd.normal(0, 0.5, 300), step_s=60)
        test = make_series(1.1 * np.roll(base, 3) + rnd.normal(0, 1.0, 300), step_s=60)
        text = format_report(calibration_report(ref, test))
        monkeypatch.setattr(calib_metrics, "dtw", dtw_oracle)
        monkeypatch.setattr(calib_metrics, "warp_onto_reference", warp_oracle)
        monkeypatch.setattr(calib_metrics, "hp_filter", hp_filter_oracle)
        assert format_report(calibration_report(ref, test)) == text
        assert "n_points=300\n" in text
