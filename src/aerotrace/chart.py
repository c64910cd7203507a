"""Deterministic dual-axis SVG line charts.

Output is plain text SVG built with fixed float formatting and no timestamps
or generated ids, so identical inputs produce byte-identical files. The
first line after the XML declaration is a version comment consumers can key
on.
"""
from __future__ import annotations

from datetime import datetime
from typing import Sequence

from .errors import DataError

CHART_VERSION_COMMENT = "<!-- aerotrace-chart v1 -->"

WIDTH, HEIGHT = 960.0, 480.0
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70.0, 70.0, 40.0, 60.0
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
LEFT_COLOR = "#1f77b4"
RIGHT_COLOR = "#d62728"
N_TICKS = 5


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _scale(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    return lo, hi


def _y_pos(v: float, lo: float, hi: float) -> float:
    return MARGIN_TOP + PLOT_H * (1.0 - (v - lo) / (hi - lo))


def _x_pos(i: int, n: int) -> float:
    if n == 1:
        return MARGIN_LEFT + PLOT_W / 2.0
    return MARGIN_LEFT + PLOT_W * i / (n - 1)


def render_dual_axis_chart(times: Sequence[datetime],
                           left_values: Sequence[float],
                           right_values: Sequence[float],
                           left_label: str,
                           right_label: str,
                           title: str) -> str:
    if not (len(times) == len(left_values) == len(right_values)) or not times:
        raise DataError("chart inputs must be equal-length and non-empty")
    n = len(times)
    l_lo, l_hi = _scale(left_values)
    r_lo, r_hi = _scale(right_values)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        CHART_VERSION_COMMENT,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>',
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" width="{_fmt(PLOT_W)}" '
        f'height="{_fmt(PLOT_H)}" fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="24.00" text-anchor="middle" '
        f'font-family="monospace" font-size="16">{title}</text>',
    ]

    for k in range(N_TICKS):
        frac = k / (N_TICKS - 1)
        y = MARGIN_TOP + PLOT_H * (1.0 - frac)
        lv = l_lo + frac * (l_hi - l_lo)
        rv = r_lo + frac * (r_hi - r_lo)
        out.append(f'<line x1="{_fmt(MARGIN_LEFT - 4)}" y1="{_fmt(y)}" '
                   f'x2="{_fmt(MARGIN_LEFT)}" y2="{_fmt(y)}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
                   f'font-family="monospace" font-size="11" fill="{LEFT_COLOR}">{lv:.6g}</text>')
        out.append(f'<line x1="{_fmt(WIDTH - MARGIN_RIGHT)}" y1="{_fmt(y)}" '
                   f'x2="{_fmt(WIDTH - MARGIN_RIGHT + 4)}" y2="{_fmt(y)}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(WIDTH - MARGIN_RIGHT + 8)}" y="{_fmt(y + 4)}" '
                   f'text-anchor="start" font-family="monospace" font-size="11" '
                   f'fill="{RIGHT_COLOR}">{rv:.6g}</text>')

    label_step = max(1, (n - 1) // 7) if n > 1 else 1
    for i in range(0, n, label_step):
        x = _x_pos(i, n)
        stamp = times[i].strftime("%m-%d %H:%M")
        out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(HEIGHT - MARGIN_BOTTOM)}" '
                   f'x2="{_fmt(x)}" y2="{_fmt(HEIGHT - MARGIN_BOTTOM + 4)}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(HEIGHT - MARGIN_BOTTOM + 18)}" '
                   f'text-anchor="middle" font-family="monospace" font-size="10">{stamp}</text>')

    left_pts = " ".join(
        f"{_fmt(_x_pos(i, n))},{_fmt(_y_pos(v, l_lo, l_hi))}"
        for i, v in enumerate(left_values))
    right_pts = " ".join(
        f"{_fmt(_x_pos(i, n))},{_fmt(_y_pos(v, r_lo, r_hi))}"
        for i, v in enumerate(right_values))
    out.append(f'<polyline points="{left_pts}" fill="none" stroke="{LEFT_COLOR}" '
               f'stroke-width="1.5"/>')
    out.append(f'<polyline points="{right_pts}" fill="none" stroke="{RIGHT_COLOR}" '
               f'stroke-width="1.5"/>')

    legend_y = HEIGHT - 16.0
    out.append(f'<text x="{_fmt(MARGIN_LEFT)}" y="{_fmt(legend_y)}" font-family="monospace" '
               f'font-size="12" fill="{LEFT_COLOR}">&#9632; {left_label}</text>')
    out.append(f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(legend_y)}" font-family="monospace" '
               f'font-size="12" fill="{RIGHT_COLOR}">&#9632; {right_label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
