"""Minimal hand-rolled SVG log-log figures.

One figure per exponent: per-replicate error curves in light gray, the
Monte-Carlo mean emphasized with markers, mean +/- one standard
deviation dashed, and the fitted regression line with its
c * tau^(a +/- stderr) annotation.  Axes are log-log with decade ticks.
Everything is formatted with fixed precision so reruns of the same
experiment emit byte-identical files.
"""

from __future__ import annotations

import math

WIDTH = 640
HEIGHT = 480
BOX = (70.0, 24.0, 616.0, 420.0)  # left, top, right, bottom in pixels


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _LogAxes:
    """Pixel mapping of (log10 tau, log10 value) into the plot box."""

    def __init__(self, xs, ys):
        lx = [math.log10(v) for v in xs if v > 0.0]
        # without a positive value the axes span the decade around 1
        ly = [math.log10(v) for v in ys if v > 0.0] or [0.0]
        if not lx:
            raise ValueError("log-log figure needs positive steps")
        self.xmin, self.xmax = min(lx), max(lx)
        self.ymin, self.ymax = min(ly), max(ly)
        if self.xmax - self.xmin < 1e-12:
            self.xmin, self.xmax = self.xmin - 0.5, self.xmax + 0.5
        if self.ymax - self.ymin < 1e-12:
            self.ymin, self.ymax = self.ymin - 0.5, self.ymax + 0.5
        padx = 0.04 * (self.xmax - self.xmin)
        pady = 0.06 * (self.ymax - self.ymin)
        self.xmin -= padx
        self.xmax += padx
        self.ymin -= pady
        self.ymax += pady

    def px(self, tau: float) -> float:
        t = (math.log10(tau) - self.xmin) / (self.xmax - self.xmin)
        return BOX[0] + t * (BOX[2] - BOX[0])

    def py(self, value: float) -> float:
        t = (math.log10(value) - self.ymin) / (self.ymax - self.ymin)
        return BOX[3] - t * (BOX[3] - BOX[1])

    def x_decades(self):
        return range(math.ceil(self.xmin), math.floor(self.xmax) + 1)

    def y_decades(self):
        return range(math.ceil(self.ymin), math.floor(self.ymax) + 1)


def _polyline(ax: _LogAxes, taus, values, style: str) -> str:
    pts = [(t, v) for t, v in zip(taus, values) if t > 0.0 and v > 0.0]
    if len(pts) < 2:
        return ""
    coords = " ".join(f"{_fmt(ax.px(t))},{_fmt(ax.py(v))}" for t, v in pts)
    return f'<polyline fill="none" {style} points="{coords}"/>'


def _markers(ax: _LogAxes, taus, values, color: str) -> str:
    out = []
    for t, v in zip(taus, values):
        if t > 0.0 and v > 0.0:
            out.append(f'<circle cx="{_fmt(ax.px(t))}" cy="{_fmt(ax.py(v))}" r="3.5" fill="{color}"/>')
    return "".join(out)


def render_loglog(table, summary: dict) -> str:
    """SVG figure for one exponent's Monte-Carlo table and summary."""
    taus = [float(t) for t in table.taus]
    mean = summary["E_mean"]
    std = summary["E_std"]
    upper = [m + s for m, s in zip(mean, std)]
    lower = [m - s for m, s in zip(mean, std)]
    flat = [v for row in table.totals for v in row]
    ax = _LogAxes(taus, flat + mean + upper)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for k in ax.x_decades():
        x = _fmt(ax.px(10.0**k))
        parts.append(f'<line x1="{x}" y1="{_fmt(BOX[1])}" x2="{x}" y2="{_fmt(BOX[3])}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x}" y="{_fmt(BOX[3] + 16)}" text-anchor="middle">1e{k}</text>')
    for k in ax.y_decades():
        y = _fmt(ax.py(10.0**k))
        parts.append(f'<line x1="{_fmt(BOX[0])}" y1="{y}" x2="{_fmt(BOX[2])}" y2="{y}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_fmt(BOX[0] - 6)}" y="{y}" text-anchor="end" dominant-baseline="middle">1e{k}</text>')
    parts.append(
        f'<rect x="{_fmt(BOX[0])}" y="{_fmt(BOX[1])}" width="{_fmt(BOX[2] - BOX[0])}" '
        f'height="{_fmt(BOX[3] - BOX[1])}" fill="none" stroke="black"/>'
    )

    for row in table.totals:
        parts.append(_polyline(ax, taus, list(row), 'stroke="#c8c8c8" stroke-width="1"'))
    parts.append(_polyline(ax, taus, upper, 'stroke="#808080" stroke-width="1" stroke-dasharray="5,4"'))
    parts.append(_polyline(ax, taus, lower, 'stroke="#808080" stroke-width="1" stroke-dasharray="5,4"'))
    parts.append(_polyline(ax, taus, mean, 'stroke="#cc0000" stroke-width="2"'))
    parts.append(_markers(ax, taus, mean, "#cc0000"))

    a = summary["a_tilde"]
    if a is None:
        note = "fit: none (fewer than two positive mean errors)"
    else:
        log_c = summary["log_c"]
        line = [math.exp(log_c + a * math.log(t)) for t in summary["taus_fit"]]
        parts.append(_polyline(ax, summary["taus_fit"], line, 'stroke="#0044cc" stroke-width="1.5"'))
        note = f"fit: c*tau^({a:.3f} +/- {summary['a_tilde_stderr']:.3f})"

    title = f"p = {table.p:g}, E(tau) over {summary['n_replicates_ok']} paths"
    if summary.get("a_corrected") is not None:
        note += f", corrected a = {summary['a_corrected']:.3f}, alpha = {summary['alpha']:.3f}"
    parts.append(f'<text x="{_fmt(BOX[0])}" y="16" font-size="14">{title}</text>')
    parts.append(f'<text x="{_fmt(BOX[0] + 8)}" y="{_fmt(BOX[1] + 16)}" fill="#0044cc">{note}</text>')
    parts.append(f'<text x="{_fmt(0.5 * (BOX[0] + BOX[2]))}" y="{HEIGHT - 8}" text-anchor="middle">tau</text>')
    parts.append(f'<text x="16" y="{_fmt(0.5 * (BOX[1] + BOX[3]))}" transform="rotate(-90 16 {_fmt(0.5 * (BOX[1] + BOX[3]))})" text-anchor="middle">E(tau)</text>')
    parts.append("</svg>")
    return "\n".join(p for p in parts if p) + "\n"
