"""Minimum-cost bipartite assignment.

The cost matrix is padded square with zeros and solved once by the O(n^3)
potentials form of the Hungarian method. An assignment is optimal exactly
when every pair in it is *tight*: its reduced cost ``|a[i, j] - u[i] - v[j]|``
under the solver's row and column potentials is within a tolerance.
``hungarian`` walks the rows in order and moves each to its smallest tight
real column whenever an alternating cycle of tight edges, leaving earlier rows
in place, can free it. The result is the lexicographically smallest optimal
pair list, reproducible across platforms even when optima tie.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DataError


def _jv(cost: list[list[float]]) -> tuple[list[float], list[float], list[int]]:
    """Solve a square matrix: row potentials, column potentials, row of each column."""
    n = len(cost)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)      # p[j]: row currently matched to column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = math.inf
            j1 = 0
            row = cost[i0 - 1]
            ui0 = u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return u[1:], v[1:], [r - 1 for r in p[1:]]


def _reseat(tight: list[list[int]], col: list[int], row_of: list[int],
            j: int, goal: int, seen: set[int]) -> bool:
    """Shift the holder of column ``j`` along tight edges, outside ``seen``, onto ``goal``."""
    r = row_of[j]
    for k in tight[r]:
        if k not in seen:
            seen.add(k)
            if k == goal or _reseat(tight, col, row_of, k, goal, seen):
                col[r] = k
                row_of[k] = r
                return True
    return False


def hungarian(cost: Sequence[Sequence[float]] | np.ndarray) -> list[tuple[int, int]]:
    """Return a minimum-total-cost matching of min(n, m) (row, col) pairs.

    Pairs come back sorted by row. Ties between equally cheap assignments are
    resolved deterministically: the flat pair sequence is the lexicographically
    smallest among all optimal assignments.
    """
    a = np.asarray(cost, dtype=float)
    if a.ndim != 2:
        raise DataError(f"cost matrix must be 2-D, got shape {a.shape}")
    n, m = a.shape
    if min(n, m) == 0:
        return []
    if not np.isfinite(a).all():
        raise DataError("cost matrix must be finite")

    size = max(n, m)
    square = np.zeros((size, size))
    square[:n, :m] = a
    u, v, row_of = _jv(square.tolist())
    col = np.argsort(row_of).tolist()
    tol = 1e-11 * max(1.0, abs(float(square[row_of, range(size)].sum())))
    reduced = np.abs(square - np.add.outer(u, v))
    tight = [np.flatnonzero(row <= tol).tolist() for row in reduced]
    for i in range(n):  # rows before i stay fixed; padding columns (>= m) rank last
        for c in tight[i]:
            if c >= min(col[i], m):
                break
            if row_of[c] > i and _reseat(tight, col, row_of, c, col[i], {c, *col[:i]}):
                col[i] = c
                row_of[c] = i
                break
    return [(i, col[i]) for i in range(n) if col[i] < m]
