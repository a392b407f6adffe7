"""Deterministic semilog convergence plots as self-contained SVG.

No plotting dependency: elements are emitted directly with fixed coordinate
formatting, so identical input always produces identical bytes. The y axis
is log10 of the squared error with exactly 10 ticks; zero values are
clipped to the plot floor. The per-trial curves of a strategy go through
one pixel map (one ``_Canvas.y`` call on their concatenation, which maps
value by value, so each pixel is the one a call per curve gives); a
per-trial curve whose float64 values are byte-equal to the previous curve
of its strategy reuses that curve's polyline. Every polyline, per-trial or
mean, formats its points in one ``%`` operation on a template of
``"x,%.2f"`` points built once per plot.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 960, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 78, 24, 30, 56
N_YTICKS = 10

XLABEL = "sweep"
YLABEL = "squared energy error"

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"]

_FLOOR_EXP = -320  # everything positive representable lies above this


def _axis_range(curves):
    vals = np.concatenate([np.asarray(ys, dtype=np.float64) for ys in curves])
    pos = vals[vals > 0]
    if not pos.size:
        lo_exp, hi_exp = -1, 0
    else:
        lo_exp = math.floor(math.log10(pos.min()))
        hi_exp = math.ceil(math.log10(pos.max()))
        if hi_exp <= lo_exp:
            hi_exp = lo_exp + 1
    # widen to a span divisible by N_YTICKS - 1 so tick exponents are integers
    span = hi_exp - lo_exp
    step = max(1, math.ceil(span / (N_YTICKS - 1)))
    lo_exp = hi_exp - step * (N_YTICKS - 1)
    return lo_exp, hi_exp, step


def _fmt(x):
    return f"{x:.2f}"


def _text(s):
    """s as SVG text: &, < and > escaped, characters outside ASCII as &#N;."""
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .encode("ascii", "xmlcharrefreplace").decode("ascii"))


class _Canvas:
    def __init__(self, lo_exp, hi_exp, max_sweep):
        self.lo = lo_exp
        self.hi = hi_exp
        self.max_sweep = max(max_sweep, 1)
        self.x0, self.x1 = MARGIN_L, WIDTH - MARGIN_R
        self.y0, self.y1 = HEIGHT - MARGIN_B, MARGIN_T

    def x(self, sweep):
        return self.x0 + (self.x1 - self.x0) * sweep / self.max_sweep

    def y(self, values):
        """Pixel y of each value as a float64 array: its log10 (_FLOOR_EXP
        for values <= 0) clipped to [lo, hi]. The exponents come from
        math.log10, since np.log10 need not match it to the last bit."""
        values = np.asarray(values, dtype=np.float64)
        pos = values > 0
        exps = np.full(len(values), float(_FLOOR_EXP))
        exps[pos] = list(map(math.log10, values[pos].tolist()))
        exps = np.minimum(np.maximum(exps, self.lo), self.hi)
        return self.y0 + (self.y1 - self.y0) * (exps - self.lo) / (self.hi - self.lo)


def _polyline(points, pixels, color, width, opacity=None):
    """Polyline through the pixel y values, points[k] being the "x,%.2f"
    template of the k-th point."""
    pts = " ".join(points[:len(pixels)]) % tuple(pixels)
    op = f' stroke-opacity="{opacity}"' if opacity is not None else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{op} '
            f'points="{pts}"/>')


def render_semilog(series, title: str = "", per_trial=None) -> str:
    """Render mean convergence curves (and optional faint per-trial curves).

    ``series`` is an ordered list of (label, values) pairs, values indexed
    by sweep starting at 0; ``per_trial`` maps labels to lists of curves.
    """
    if not series:
        raise ValueError("nothing to plot")
    curves = [ys for _, ys in series]
    if per_trial:
        curves += [ys for trial_curves in per_trial.values() for ys in trial_curves]
    lo, hi, step = _axis_range(curves)
    cv = _Canvas(lo, hi, max(len(ys) - 1 for _, ys in series))
    points = [f"{cv.x(k):.2f},%.2f" for k in range(max(len(ys) for ys in curves))]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    font = 'font-family="monospace" font-size="12"'

    # y grid, ticks, labels at integer exponents
    exps = [lo + t * step for t in range(N_YTICKS)]
    # 10.0 ** 309 overflows; only the top tick reaches 309, and y(inf) is the top
    ticks = [10.0 ** e if e < 309 else math.inf for e in exps]
    for e, ypix in zip(exps, map(_fmt, cv.y(ticks).tolist())):
        parts.append(f'<line x1="{cv.x0}" y1="{ypix}" x2="{cv.x1}" y2="{ypix}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{cv.x0 - 6}" y="{ypix}" {font} text-anchor="end" '
                     f'dominant-baseline="middle">1e{e:+03d}</text>')

    # x ticks: at most 11, integer sweeps
    xtick_step = max(1, math.ceil(cv.max_sweep / 10))
    k = 0
    while k <= cv.max_sweep:
        xpix = _fmt(cv.x(k))
        parts.append(f'<line x1="{xpix}" y1="{cv.y0}" x2="{xpix}" y2="{cv.y0 + 5}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{xpix}" y="{cv.y0 + 20}" {font} '
                     f'text-anchor="middle">{k}</text>')
        k += xtick_step

    # axes
    parts.append(f'<line x1="{cv.x0}" y1="{cv.y0}" x2="{cv.x1}" y2="{cv.y0}" '
                 f'stroke="black" stroke-width="1.5"/>')
    parts.append(f'<line x1="{cv.x0}" y1="{cv.y0}" x2="{cv.x0}" y2="{cv.y1}" '
                 f'stroke="black" stroke-width="1.5"/>')
    parts.append(f'<text x="{(cv.x0 + cv.x1) // 2}" y="{HEIGHT - 14}" {font} '
                 f'text-anchor="middle">{XLABEL}</text>')
    parts.append(f'<text x="16" y="{(cv.y0 + cv.y1) // 2}" {font} text-anchor="middle" '
                 f'transform="rotate(-90 16 {(cv.y0 + cv.y1) // 2})">{YLABEL}</text>')
    if title:
        parts.append(f'<text x="{(cv.x0 + cv.x1) // 2}" y="18" {font} '
                     f'text-anchor="middle">{_text(title)}</text>')

    if per_trial:
        for idx, (label, _) in enumerate(series):
            color = PALETTE[idx % len(PALETTE)]
            trials = [np.asarray(ys, dtype=np.float64) for ys in per_trial.get(label, ())]
            pixels = cv.y(np.concatenate(trials)).tolist() if trials else []
            start, last = 0, None
            for ys in trials:
                key = ys.tobytes()
                if key != last:  # a curve byte-equal to the previous one reuses its line
                    last = key
                    line = _polyline(points, pixels[start:start + len(ys)], color, 1,
                                     opacity="0.25")
                parts.append(line)
                start += len(ys)
    for idx, (label, ys) in enumerate(series):
        parts.append(_polyline(points, cv.y(ys).tolist(), PALETTE[idx % len(PALETTE)], 2))

    # legend, top right
    lx = cv.x1 - 230
    ly = cv.y1 + 8
    for idx, (label, _) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        yline = ly + 18 * idx
        parts.append(f'<line x1="{lx}" y1="{yline}" x2="{lx + 28}" y2="{yline}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 34}" y="{yline + 4}" {font}>{_text(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_semilog(path, series, **kwargs) -> None:
    svg = render_semilog(series, **kwargs)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(svg)
