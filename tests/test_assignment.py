import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linear_sum_assignment

from aerotrace import assignment
from aerotrace.assignment import hungarian
from aerotrace.errors import DataError


def brute_force(cost):
    """All optimal assignments of min(n, m) pairs by permutation enumeration."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    best = None
    optima = []
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            total = sum(cost[i, c] for i, c in enumerate(cols))
            pairs = sorted(zip(range(n), cols))
            if best is None or total < best - 1e-12:
                best, optima = total, [pairs]
            elif abs(total - best) <= 1e-12:
                optima.append(pairs)
    else:
        for rows in itertools.permutations(range(n), m):
            total = sum(cost[r, j] for j, r in enumerate(rows))
            pairs = sorted(zip(rows, range(m)))
            if best is None or total < best - 1e-12:
                best, optima = total, [pairs]
            elif abs(total - best) <= 1e-12:
                optima.append(pairs)
    return best, optima


def pairs_cost(cost, pairs):
    return sum(cost[r][c] for r, c in pairs)


class TestHungarian:
    def test_diagonal_zero_matrix(self):
        cost = 1.0 - np.eye(4)
        assert hungarian(cost) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_two_by_two(self):
        pairs = hungarian([[1, 2], [2, 1]])
        assert pairs == [(0, 0), (1, 1)]
        assert pairs_cost([[1, 2], [2, 1]], pairs) == 2

    def test_empty(self):
        assert hungarian(np.zeros((0, 3))) == []

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            hungarian([[1.0, float("inf")], [0.0, 1.0]])

    def test_integer_costs_match_brute_force(self):
        rnd = random.Random(77)
        for _ in range(120):
            n, m = rnd.randint(1, 7), rnd.randint(1, 7)
            cost = [[rnd.randint(0, 9) for _ in range(m)] for _ in range(n)]
            expected, optima = brute_force(cost)
            pairs = hungarian(cost)
            assert pairs_cost(cost, pairs) == expected
            assert pairs == min(optima)  # lexicographically smallest optimum

    def test_real_costs_match_brute_force(self):
        rnd = random.Random(78)
        for _ in range(120):
            n, m = rnd.randint(1, 7), rnd.randint(1, 7)
            cost = [[rnd.uniform(-10, 10) for _ in range(m)] for _ in range(n)]
            expected, _ = brute_force(cost)
            pairs = hungarian(cost)
            assert pairs_cost(cost, pairs) == pytest.approx(expected, abs=1e-9)

    def test_rectangular_row_selection(self):
        # 3 rows, 2 cols: the cheap rows should win and order lexicographically
        cost = [[5.0, 5.0], [0.0, 9.0], [9.0, 0.0]]
        assert hungarian(cost) == [(1, 0), (2, 1)]

    def test_one_solve_per_call(self, monkeypatch):
        calls = []

        def counting(cost):
            calls.append(len(cost))
            return solve(cost)

        solve = assignment._jv
        monkeypatch.setattr(assignment, "_jv", counting)
        hungarian(np.zeros((7, 5)))
        assert calls == [7]


# Cost matrices up to 16x16 in either orientation, with many exactly equal entries.
TIE_HEAVY = arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=16),
                   elements=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0]),
                                      st.floats(0.0, 1.0), st.integers(-3, 3).map(float)))


class TestHungarianProperties:
    @settings(deadline=None)
    @given(TIE_HEAVY)
    def test_optimal_total_matches_scipy(self, cost):
        pairs = hungarian(cost)
        n, m = cost.shape
        assert len(pairs) == min(n, m)
        assert pairs == sorted(pairs)
        assert len({c for _, c in pairs}) == len(pairs)
        rows, cols = linear_sum_assignment(cost)
        assert pairs_cost(cost, pairs) == pytest.approx(cost[rows, cols].sum(), abs=1e-9)

    @settings(deadline=None)
    @given(arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.sampled_from([0.0, 1.0, 2.0])))
    def test_small_ties_give_smallest_optimum(self, cost):
        _, optima = brute_force(cost)
        assert hungarian(cost) == min(optima)
