"""Minimal static SVG plots for spectrum sweeps.

Hand-rolled SVG keeps the output deterministic (no timestamps, no
library version drift): axes, tick labels, one polyline per mode for
Re(eps) versus the swept parameter, and highlighted markers on
zero-mode points.
"""

from __future__ import annotations

import math

WIDTH = 880
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 30
MARGIN_BOTTOM = 55
LINE_COLOR = "#1f6fb4"
ZERO_MODE_COLOR = "#d62728"


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(count - 1, 1)
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * power
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    values = []
    v = first
    while v <= hi + 1e-12 * abs(step):
        values.append(0.0 if abs(v) < 1e-12 * abs(step) else v)
        if v + step == v:  # the step is below the float spacing at v: v would never move
            break
        v += step
    return values or [lo]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def spectrum_svg(x_values, mode_series, zero_points,
                 x_label: str, y_label: str, title: str = "") -> str:
    """Build an SVG document.

    ``mode_series`` is a list of per-mode y-arrays (same length as
    ``x_values``); ``zero_points`` is a list of (x, y) pairs to highlight.
    """
    xs = list(x_values)
    all_y = [y for series in mode_series for y in series]
    if not xs or not all_y:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:  # one x; past 2**53 adding 1.0 leaves it unchanged
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo -= pad
    y_hi += pad
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{x:.2f}" '
                     f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 20}" '
                     f'font-size="12" text-anchor="middle">{_fmt(tick)}</text>')
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" '
                     f'font-size="12" text-anchor="end">{_fmt(tick)}</text>')
    parts.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 12}" '
                 f'font-size="14" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.2f})">'
                 f'{y_label}</text>')
    if title:
        parts.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="20" '
                     f'font-size="14" text-anchor="middle">{title}</text>')
    for series in mode_series:
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, series))
        parts.append(f'<polyline fill="none" stroke="{LINE_COLOR}" '
                     f'stroke-width="0.8" points="{points}"/>')
    for x, y in zero_points:
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.2" '
                     f'fill="{ZERO_MODE_COLOR}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
