"""Small self-contained SVG line charts.

Deliberately minimal: linear or log10 axes, gridlines, round markers
(filled, or open for a point that is only a bound) and an in-plot
legend, written as a single standalone SVG string with no plotting
dependency.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf", "#8c564b")

_FONT = "DejaVu Sans, Helvetica, Arial, sans-serif"
_WIDTH, _HEIGHT = 880, 560  # pixels
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # for text content


@dataclass(frozen=True)
class Series:
    """One labeled curve.

    ``hollow`` flags the points that are bounds, not estimates: they get
    an open marker and stay off the line.  Empty means no point is.
    """

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    hollow: tuple[bool, ...] = ()


def _nice_step(span: float) -> float:
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = [10.0**k for k in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)]
    return ticks or [10.0**lo]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_line_plot(
    series: list[Series] | tuple[Series, ...],
    title: str,
    xlabel: str,
    ylabel: str,
    xlog: bool = False,
    ylog: bool = False,
) -> str:
    """Render curves to an SVG document string.

    Non-finite points are dropped; on a log axis, so are values <= 0
    (a BER of exactly zero has no log-scale position).  Series left with
    no points are omitted from the plot and the legend.  The line of a
    series joins its filled points only.
    """
    kept: list[tuple[Series, list[tuple[float, float, bool]]]] = []
    for s in series:
        pts = []
        for xv, yv, hollow in zip(s.x, s.y, s.hollow or (False,) * len(s.x)):
            if not (math.isfinite(xv) and math.isfinite(yv)):
                continue
            if xlog and xv <= 0.0:
                continue
            if ylog and yv <= 0.0:
                continue
            pts.append((float(xv), float(yv), hollow))
        if pts:
            kept.append((s, pts))
    if not kept:
        raise DomainError("nothing to plot: every point was filtered out")

    fx = (lambda v: math.log10(v)) if xlog else (lambda v: v)
    fy = (lambda v: math.log10(v)) if ylog else (lambda v: v)
    xs = [fx(x) for _, pts in kept for x, _, _ in pts]
    ys = [fy(y) for _, pts in kept for _, y, _ in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    left, right, top, bottom = 72, 24, 48, 56
    px0, px1 = left, _WIDTH - right
    py0, py1 = _HEIGHT - bottom, top

    def sx(v: float) -> float:
        return px0 + (fx(v) - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v: float) -> float:
        return py0 + (fy(v) - y_lo) / (y_hi - y_lo) * (py1 - py0)

    x_ticks = _log_ticks(x_lo, x_hi) if xlog else _linear_ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if ylog else _linear_ticks(y_lo, y_hi)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="26" text-anchor="middle" font-family="{_FONT}" '
        f'font-size="17" fill="#222222">{title.translate(_XML_TEXT)}</text>',
    ]
    for t in x_ticks:
        x = sx(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{py0}" x2="{x:.2f}" y2="{py1}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{py0 + 18}" text-anchor="middle" '
            f'font-family="{_FONT}" font-size="12" fill="#444444">{_fmt(t)}</text>'
        )
    for t in y_ticks:
        y = sy(t)
        out.append(
            f'<line x1="{px0}" y1="{y:.2f}" x2="{px1}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="{_FONT}" font-size="12" fill="#444444">{_fmt(t)}</text>'
        )
    out.append(
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        f'fill="none" stroke="#333333" stroke-width="1.2"/>'
    )
    out.append(
        f'<text x="{(px0 + px1) / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="{_FONT}" font-size="13" fill="#222222">{xlabel.translate(_XML_TEXT)}</text>'
    )
    out.append(
        f'<text x="20" y="{(py0 + py1) / 2:.1f}" text-anchor="middle" '
        f'font-family="{_FONT}" font-size="13" fill="#222222" '
        f'transform="rotate(-90 20 {(py0 + py1) / 2:.1f})">{ylabel.translate(_XML_TEXT)}</text>'
    )

    for k, (s, pts) in enumerate(kept):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y, hollow in pts if not hollow)
        if coords:
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"/>'
            )
        for x, y, hollow in pts:
            if hollow:
                out.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.2" fill="none" '
                    f'stroke="{color}" stroke-width="1.2"/>'
                )
            else:
                out.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.6" fill="{color}"/>'
                )

    leg_x = px1 - 150
    leg_y = py1 + 12
    out.append(
        f'<rect x="{leg_x - 10}" y="{leg_y - 14}" width="156" '
        f'height="{18 * len(kept) + 10}" fill="#ffffff" fill-opacity="0.85" '
        f'stroke="#bbbbbb" stroke-width="0.8"/>'
    )
    for k, (s, _) in enumerate(kept):
        color = PALETTE[k % len(PALETTE)]
        y = leg_y + 18 * k
        out.append(
            f'<line x1="{leg_x}" y1="{y - 4}" x2="{leg_x + 26}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2.2"/>'
        )
        out.append(
            f'<text x="{leg_x + 34}" y="{y}" font-family="{_FONT}" font-size="12" '
            f'fill="#333333">{s.label.translate(_XML_TEXT)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_line_plot(path: str | Path, *args, **kwargs) -> None:
    Path(path).write_text(render_line_plot(*args, **kwargs), encoding="utf-8")
