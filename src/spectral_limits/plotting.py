"""Minimal hand-written SVG line charts (no plotting dependency)."""

from __future__ import annotations

import math

__all__ = ["svg_line_chart"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo: float, hi: float):
    """The powers of ten from at most ``lo`` to at least ``hi``."""
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def svg_line_chart(series: dict, path, xlabel: str, ylabel: str):
    """Write one polyline per series on 640 x 420 log-log axes."""
    margin, width, height = 60, 640, 420
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys if y > 0]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    f = math.log10
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)

    def sx(x):
        a, b = f(x_lo), f(x_hi)
        t = 0.5 if b == a else (f(x) - a) / (b - a)
        return margin + t * (width - 2 * margin)

    def sy(y):
        a, b = f(y_lo), f(y_hi)
        t = 0.5 if b == a else (f(y) - a) / (b - a)
        return height - margin - t * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            x = sx(t)
            parts.append(
                f'<line x1="{x:.1f}" y1="{height - margin}" x2="{x:.1f}" '
                f'y2="{height - margin + 5}" stroke="black"/>'
                f'<text x="{x:.1f}" y="{height - margin + 18}" font-size="10" '
                f'text-anchor="middle">{t:g}</text>'
            )
    for t in _ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            y = sy(t)
            parts.append(
                f'<line x1="{margin - 5}" y1="{y:.1f}" x2="{margin}" '
                f'y2="{y:.1f}" stroke="black"/>'
                f'<text x="{margin - 8}" y="{y + 3:.1f}" font-size="10" '
                f'text-anchor="end">{t:g}</text>'
            )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.0f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {height / 2:.0f})">'
        f"{ylabel}</text>"
    )
    for idx, (label, (xs, ys)) in enumerate(sorted(series.items())):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * idx + 10}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
