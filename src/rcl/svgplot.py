"""Dependency-free SVG line plots of trajectories.

Follows the usual styling for this kind of figure: adversaries are dashed
red, the reference is a heavy black line, leaders are blue, normal agents
cycle through a muted palette.  The y-range is fitted to the finite values of
the normal agents, leaders and reference; adversary curves (which may be
unbounded) are clipped to the plot area, and a series breaks at non-finite states.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .simulation import Trajectory

_PALETTE = (
    "#4878a8", "#6aa84f", "#8e63b0", "#c28e3c", "#50a0a0",
    "#a86478", "#74823c", "#5a78d2", "#3c9170", "#b0776a",
)

_WIDTH, _HEIGHT = 900, 540
_ML, _MR, _MT, _MB = 62.0, 16.0, 34.0, 42.0
_PLOT_W, _PLOT_H = _WIDTH - _ML - _MR, _HEIGHT - _MT - _MB


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _y(values: np.ndarray, ylo: float, yhi: float) -> np.ndarray:
    """The plot y of each value: the one y-map of the polylines and the ticks."""
    return _MT + _PLOT_H * (1.0 - (values - ylo) / (yhi - ylo))


def _polyline_points(values: np.ndarray, template: str, ylo: float, yhi: float) -> str:
    """One series' ``x,y`` points: ``template`` % its ``_y`` values, with each
    x formatted there and each y a ``%.2f``, which formats as ``{:.2f}`` does."""
    return template % tuple(_y(values, ylo, yhi).tolist())


def render_trajectory_svg(traj: Trajectory, title: str | None = None) -> str:
    config = traj.config
    rounds = traj.horizon
    normals = config.normals
    leaders = config.leaders

    # fitted over finite values only: an infinite state cannot set the scale.
    # The reference, if any, is the last column; one isfinite per plot.
    refs = [] if traj.reference is None else [traj.reference]
    series = np.column_stack([traj.states, *refs])  # a copy, scaled in place below
    finite = np.isfinite(series)
    cols = [i - 1 for i in normals + leaders] + [-1] * len(refs)
    fitted = series[:, cols][finite[:, cols]]
    ylo, yhi = (float(fitted.min()), float(fitted.max())) if fitted.size else (0.0, 1.0)
    # past 2^1021 the padded span would overflow: plot at an eighth of the size
    scale = 1.0 if max(-ylo, yhi) < 2.0**1021 else 0.125
    series *= scale
    ylo, yhi = ylo * scale, yhi * scale
    pad = 0.06 * (yhi - ylo)
    if not pad > 0.0:  # a flat range, or one of a few subnormal steps:
        pad = max(1.0, abs(ylo) * 2.0**-40)  # past 2^53, 1.0 is under a float step
    ylo, yhi = ylo - pad, yhi + pad

    def sx(t: float) -> float:
        return _ML + _PLOT_W * (t / rounds if rounds else 0.0)

    template = " ".join(f"{sx(t):.2f},%.2f" for t in range(rounds + 1))

    def polylines(col: int, style: str) -> list[str]:
        """``series[:, col]`` as one polyline per run of finite values."""
        pts, ok = _polyline_points(series[:, col], template, ylo, yhi), finite[:, col]
        runs = [pts]
        if not ok.all():
            tokens, ends = pts.split(" "), np.flatnonzero(np.diff(ok, prepend=False, append=False))
            runs = [" ".join(tokens[a:b]) for a, b in zip(ends[::2], ends[1::2])]
        return [f'<polyline fill="none" {style} points="{run}" clip-path="url(#plot)"/>' for run in runs]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<defs><clipPath id="plot"><rect x="{_ML}" y="{_MT}" width="{_PLOT_W}" '
        f'height="{_PLOT_H}"/></clipPath></defs>',
    ]

    ticks = _nice_ticks(ylo, yhi)
    for tick, y in zip(ticks, _y(np.array(ticks), ylo, yhi).tolist()):
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_WIDTH - _MR}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#444444">{tick / scale:g}</text>'
        )
    for tick in _nice_ticks(0, rounds):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_HEIGHT - _MB}" '
            'stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _MB + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#444444">{tick:g}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_PLOT_W}" height="{_PLOT_H}" '
        'fill="none" stroke="#888888" stroke-width="1"/>'
    )

    for idx, i in enumerate(normals):
        parts += polylines(i - 1, f'stroke="{_PALETTE[idx % len(_PALETTE)]}" stroke-width="1.2"')
    for i in leaders:
        parts += polylines(i - 1, 'stroke="#1f3c88" stroke-width="1.6"')
    for i in config.adversaries:
        parts += polylines(i - 1, 'stroke="#cc2222" stroke-width="1.4" stroke-dasharray="6,4"')
    if traj.reference is not None:
        parts += polylines(-1, 'stroke="#000000" stroke-width="2.2"')

    if title:
        # escaped by hand: xml.sax.saxutils imports urllib.request and ssl
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" fill="#222222">{title}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 6}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12" fill="#444444">round</text>'
    )
    legend = [("normal", "#4878a8", ""), ("leader", "#1f3c88", ""),
              ("adversary", "#cc2222", ' stroke-dasharray="6,4"')]
    if traj.reference is not None:
        legend.append(("reference", "#000000", ""))
    x0 = _ML + 10
    for label, color, dash in legend:
        parts.append(
            f'<line x1="{x0}" y1="{_MT + 12}" x2="{x0 + 26}" y2="{_MT + 12}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        parts.append(
            f'<text x="{x0 + 31}" y="{_MT + 16}" font-family="sans-serif" '
            f'font-size="11" fill="#333333">{label}</text>'
        )
        x0 += 36 + 7 * len(label) + 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_trajectory_svg(traj: Trajectory, path, title: str | None = None) -> None:
    Path(path).write_text(render_trajectory_svg(traj, title))
