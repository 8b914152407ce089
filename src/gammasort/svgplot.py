"""Minimal self-contained SVG charts, so reports need no plotting stack.

One writer, :func:`_write_chart`, lays out every chart and escapes its text,
so names read from files cannot break the XML.
"""

from __future__ import annotations

from pathlib import Path

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_WIDTH, _HEIGHT = 720, 440
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64.0, 16.0, 32.0, 44.0
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_PLOT_RIGHT, _PLOT_BOTTOM = _MARGIN_LEFT + _PLOT_W, _MARGIN_TOP + _PLOT_H
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # xml.sax.saxutils would import urllib


def _bounds(values):
    lo = min(values)
    hi = max(values)
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _text(x: str, y: str, text, attrs: str = ' text-anchor="middle"') -> str:
    """A ``<text>`` element at the formatted position ``x``, ``y``; every chart text is escaped here."""
    return f'<text x="{x}" y="{y}"{attrs}>{str(text).translate(_ESCAPES)}</text>'


def _write_chart(path, title, x_label, y_label, x_range, y_range, body) -> None:
    """Write a chart's frame, five-step grid and labels, then the elements ``body(sx, sy)`` yields.

    ``sx`` and ``sy`` map data coordinates to the plot area.  Without an
    ``x_range`` (a bar chart) the x axis has no grid lines or tick labels.
    """
    y_lo, y_hi = y_range

    def sx(x):
        return _MARGIN_LEFT + (x - x_range[0]) / (x_range[1] - x_range[0]) * _PLOT_W

    def sy(y):
        return _MARGIN_TOP + _PLOT_H - (y - y_lo) / (y_hi - y_lo) * _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" width="{_fmt(_PLOT_W)}" '
        f'height="{_fmt(_PLOT_H)}" fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(_text(_fmt(_WIDTH / 2), "20", title, ' text-anchor="middle" font-size="14"'))
    for i in range(5):
        gy = y_lo + i / 4 * (y_hi - y_lo)
        py = sy(gy)
        step = [
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(py)}" x2="{_fmt(_PLOT_RIGHT)}" y2="{_fmt(py)}" '
            'stroke="#ddd"/>',
            _text(_fmt(_MARGIN_LEFT - 6), _fmt(py + 4), f"{gy:.4g}", ' text-anchor="end"'),
        ]
        if x_range is not None:  # each x grid line and tick label goes before its y one
            gx = x_range[0] + i / 4 * (x_range[1] - x_range[0])
            px = _fmt(sx(gx))
            x_line = (f'<line x1="{px}" y1="{_fmt(_MARGIN_TOP)}" x2="{px}" y2="{_fmt(_PLOT_BOTTOM)}" '
                      'stroke="#ddd"/>')
            step = [x_line, step[0], _text(px, _fmt(_PLOT_BOTTOM + 16), f"{gx:.4g}"), step[1]]
        parts += step
    if x_label:
        parts.append(_text(_fmt(_MARGIN_LEFT + _PLOT_W / 2), _fmt(_HEIGHT - 8), x_label))
    if y_label:
        cy = _fmt(_MARGIN_TOP + _PLOT_H / 2)
        parts.append(_text("14", cy, y_label, f' text-anchor="middle" transform="rotate(-90 14 {cy})"'))
    parts += body(sx, sy)
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_line_svg(path: str | Path, series: list[tuple[str, list, list]], title: str = "",
                   x_label: str = "", y_label: str = "") -> None:
    """Write a line chart for ``series`` = [(name, xs, ys), ...].

    The legend names the first ``len(PALETTE)`` series, one row each, and counts
    the rest in one ``+<n> more`` row, so it stays inside the plot.
    """
    if not series or any(len(xs) == 0 or len(xs) != len(ys) for _, xs, ys in series):
        raise ValueError("each series needs matching non-empty x and y values")
    lx = _PLOT_RIGHT - 150

    def lines(sx, sy):
        for i, (name, xs, ys) in enumerate(series):
            color = PALETTE[i % len(PALETTE)]
            points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
            ly = _MARGIN_TOP + 14 + 16 * i
            yield f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            if i < len(PALETTE):
                yield (f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 18)}" '
                       f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>')
                yield _text(_fmt(lx + 24), _fmt(ly), name, "")
        if len(series) > len(PALETTE):
            more_y = _MARGIN_TOP + 14 + 16 * len(PALETTE)
            yield _text(_fmt(lx + 24), _fmt(more_y), f"+{len(series) - len(PALETTE)} more", "")

    x_range = _bounds([x for _, xs, _ in series for x in xs])
    y_range = _bounds([y for _, _, ys in series for y in ys])
    _write_chart(path, title, x_label, y_label, x_range, y_range, lines)


def write_bar_svg(path: str | Path, labels: list[str], values: list[float], title: str = "",
                  y_label: str = "") -> None:
    """Write a bar chart for one labeled value per category."""
    if not labels or len(labels) != len(values):
        raise ValueError("labels and values must align and be non-empty")
    y_lo = min(0.0, min(values))
    slot = _PLOT_W / len(labels)

    def bars(sx, sy):
        for i, (label, value) in enumerate(zip(labels, values)):
            x0, bar_w, y_top = _MARGIN_LEFT + slot * (i + 0.15), slot * 0.7, sy(value)
            yield (f'<rect x="{_fmt(x0)}" y="{_fmt(y_top)}" width="{_fmt(bar_w)}" '
                   f'height="{_fmt(sy(y_lo) - y_top)}" fill="{PALETTE[i % len(PALETTE)]}"/>')
            yield _text(_fmt(x0 + bar_w / 2), _fmt(_PLOT_BOTTOM + 16), label)

    _write_chart(path, title, "", y_label, None, (y_lo, max(1.0, max(values))), bars)
