"""Minimal self-contained SVG line plots.

No external assets, no plotting dependency: every figure is a single
SVG file with inline polylines, ticks and a legend, deterministic for
a given data set.
"""

from __future__ import annotations

import math

_W, _H = 840, 560
_ML, _MR, _MT, _MB = 80, 24, 44, 64
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    # ticks i * step from integer indices: their count stays bounded by the
    # span even where it is below the float resolution of lo and hi
    first = math.ceil(lo / step)
    count = math.floor((hi - first * step) / step + 1e-12 * span / step) + 1
    return [(first + i) * step for i in range(count)]


def line_plot(path, series, title="", xlabel="", ylabel="", logx=False) -> None:
    """Write a line plot to ``path``.

    ``series`` is a list of (label, xs, ys) triples; points with a
    non-finite x or y are skipped, and the polyline joins the finite
    points on either side of them.
    """
    xs_all, ys_all = [], []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                xs_all.append(math.log10(x) if logx else x)
                ys_all.append(y)
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    xlo, xhi = min(xs_all), max(xs_all)
    ylo, yhi = min(ys_all), max(ys_all)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    ypad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - ypad, yhi + ypad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return _MT + (yhi - y) / (yhi - ylo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="13">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>')

    for t in _ticks(xlo, xhi):
        x = px(t)
        label = _fmt(10.0 ** t) if logx else _fmt(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_MT + ph}" x2="{_fmt(x)}" y2="{_MT + ph + 5}" stroke="#333"/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{_MT + ph + 20}" text-anchor="middle">{label}</text>'
        )
    for t in _ticks(ylo, yhi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" stroke="#333"/>')
        parts.append(
            f'<text x="{_ML - 9}" y="{_fmt(y + 4)}" text-anchor="end">{_fmt(t)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_ML + pw / 2}" y="{_H - 16}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="20" y="{_MT + ph / 2}" text-anchor="middle" '
            f'transform="rotate(-90 20 {_MT + ph / 2})">{ylabel}</text>'
        )

    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = []
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            xv = math.log10(x) if logx else x
            pts.append(f"{_fmt(px(xv))},{_fmt(py(y))}")
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        ly = _MT + 18 + 18 * i
        parts.append(f'<line x1="{_ML + 10}" y1="{ly - 4}" x2="{_ML + 34}" y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{_ML + 40}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
