"""CSV/JSON serialization and self-contained SVG plots.

CSV numbers are written with 17 significant digits so values round-trip
exactly.  The SVG writers have no plotting dependency and emit fixed
800x600 documents: a line plot for one-axis sweeps and a cell heatmap for
two-axis sweeps.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 90, 30, 50, 70

# Anchor colors of a perceptually ordered map (dark blue to yellow).
_COLOR_ANCHORS = (
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
)


def format_number(x) -> str:
    """17-significant-digit decimal form (round-trip safe)."""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, payload) -> None:
    """Strict JSON, with non-finite floats as "Infinity", "-Infinity" or "NaN"."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # json.dumps names them bare; parse_constant quotes them
        named = json.loads(json.dumps(payload), parse_constant=str)
        text = json.dumps(named, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _ticks(lo: float, hi: float, count: int = 5):
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _fmt_tick(x: float) -> str:
    return format(x, ".4g")


def _labels_svg(xlabel: str, ylabel: str) -> list[str]:
    """White background and axis labels of a plot."""
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    return [
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{xlabel}</text>',
        f'<text x="22" y="{(y0 + y1) / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16" '
        f'transform="rotate(-90 22 {(y0 + y1) / 2})">{ylabel}</text>',
    ]


_FRAME = (
    f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_R - MARGIN_L}" '
    f'height="{HEIGHT - MARGIN_B - MARGIN_T}" fill="none" stroke="black"/>'
)


def _xtick_svg(px: float, value: float) -> list[str]:
    y0 = HEIGHT - MARGIN_B
    return [
        f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>',
        f'<text x="{px:.1f}" y="{y0 + 22}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_fmt_tick(value)}</text>',
    ]


def _ytick_svg(py: float, value: float) -> list[str]:
    x0 = MARGIN_L
    return [
        f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>',
        f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{_fmt_tick(value)}</text>',
    ]


def _axes_svg(xlabel: str, ylabel: str, xlo, xhi, ylo, yhi):
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts = _labels_svg(xlabel, ylabel)
    parts.insert(1, _FRAME)
    for tx in _ticks(xlo, xhi):
        parts += _xtick_svg(x0 + (tx - xlo) / (xhi - xlo or 1.0) * (x1 - x0), tx)
    for ty in _ticks(ylo, yhi):
        parts += _ytick_svg(y0 - (ty - ylo) / (yhi - ylo or 1.0) * (y0 - y1), ty)
    return parts


def _color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_COLOR_ANCHORS) - 1)
    i = min(int(pos), len(_COLOR_ANCHORS) - 2)
    f = pos - i
    rgb = [
        _COLOR_ANCHORS[i][c] * (1 - f) + _COLOR_ANCHORS[i + 1][c] * f
        for c in range(3)
    ]
    return "#%02x%02x%02x" % tuple(int(round(255 * v)) for v in rgb)


def line_svg(path, x, y, xlabel: str, ylabel: str) -> None:
    """Single-curve line plot on fixed 800x600 canvas."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    xlo, xhi = min(x), max(x)
    ylo, yhi = min(y), max(y)
    if math.isclose(ylo, yhi):
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    parts = _axes_svg(xlabel, ylabel, xlo, xhi, ylo, yhi)
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    pts = []
    for xv, yv in zip(x, y):
        px = x0 + (xv - xlo) / (xhi - xlo or 1.0) * (x1 - x0)
        py = y0 - (yv - ylo) / (yhi - ylo) * (y0 - y1)
        pts.append(f"{px:.2f},{py:.2f}")
    parts.append(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="#1f77b4" stroke-width="2"/>'
    )
    _write_svg(path, parts)


def heatmap_svg(path, xvals, yvals, grid, xlabel: str, ylabel: str) -> None:
    """Cell heatmap of grid[i][j] over x = xvals[i], y = yvals[j].

    Cells sit on the index lattice; ticks label a subset of cell centers
    with their axis values, which stays honest for non-uniform grids.
    """
    xvals = [float(v) for v in xvals]
    yvals = [float(v) for v in yvals]
    flat = [float(grid[i][j]) for i in range(len(xvals)) for j in range(len(yvals))]
    lo, hi = min(flat), max(flat)
    span = hi - lo or 1.0
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts = _labels_svg(xlabel, ylabel)
    cw = (x1 - x0) / len(xvals)
    ch = (y0 - y1) / len(yvals)
    for i in range(len(xvals)):
        for j in range(len(yvals)):
            t = (float(grid[i][j]) - lo) / span
            px = x0 + i * cw
            py = y0 - (j + 1) * ch
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.5:.2f}" '
                f'height="{ch + 0.5:.2f}" fill="{_color(t)}"/>'
            )
    stride_x = max(1, len(xvals) // 6)
    stride_y = max(1, len(yvals) // 6)
    for i in range(0, len(xvals), stride_x):
        parts += _xtick_svg(x0 + (i + 0.5) * cw, xvals[i])
    for j in range(0, len(yvals), stride_y):
        parts += _ytick_svg(y0 - (j + 0.5) * ch, yvals[j])
    parts.append(_FRAME)
    parts.append(
        f'<text x="{x1}" y="{y1 - 8}" text-anchor="end" font-family="sans-serif" '
        f'font-size="12">min={_fmt_tick(lo)} max={_fmt_tick(hi)}</text>'
    )
    _write_svg(path, parts)


def _write_svg(path, parts) -> None:
    doc = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n' + "\n".join(parts) + "\n</svg>\n"
    )
    Path(path).write_text(doc, encoding="utf-8")


__all__ = ["format_number", "write_csv", "write_json", "line_svg", "heatmap_svg"]
