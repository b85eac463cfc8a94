"""Small deterministic SVG chart writer.

Hand-rolled on purpose: charts must be byte-identical across reruns of
the same experiment, so there are no timestamps, no library version
strings, and all numbers go through one fixed formatter. Three chart
kinds cover the suite's needs: line charts (optionally log-x), scatter
plots, and discrete heatmaps.
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["line_chart", "scatter_chart", "heatmap_chart", "PALETTE"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")

WIDTH, HEIGHT = 720, 480
ML, MR, MT, MB = 72, 24, 42, 56


def _fmt(v: float) -> str:
    s = f"{float(v):.6g}"
    return "0" if s == "-0" else s


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _nice_ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if not hi > lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(1, count - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            step = mult * mag
            break
    t = math.ceil(lo / step) * step
    out = []
    while t <= hi + 1e-9 * (hi - lo):
        out.append(round(t, 12))
        t += step
    return out or [lo, hi]


def _log_ticks(lo: float, hi: float) -> list[float]:
    out = []
    e = math.floor(math.log10(lo))
    while 10.0 ** e <= hi * (1 + 1e-12):
        if 10.0 ** e >= lo * (1 - 1e-12):
            out.append(10.0 ** e)
        e += 1
    return out or [lo, hi]


_PLOT_BORDER = (f'<rect x="{ML}" y="{MT}" width="{WIDTH - ML - MR}" '
                f'height="{HEIGHT - MT - MB}" fill="none" stroke="#333333"/>')


def _labels(xlabel: str, ylabel: str, title: str) -> list[str]:
    """The x-label, y-label and title elements; empty ones are left out."""
    parts = []
    if xlabel:
        parts.append(f'<text x="{(ML + WIDTH - MR) // 2}" y="{HEIGHT - 14}" '
                     f'font-size="13" text-anchor="middle" fill="#333333">{_esc(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="18" y="{(MT + HEIGHT - MB) // 2}" font-size="13" '
                     f'text-anchor="middle" fill="#333333" '
                     f'transform="rotate(-90 18 {(MT + HEIGHT - MB) // 2})">{_esc(ylabel)}</text>')
    if title:
        parts.append(f'<text x="{WIDTH // 2}" y="26" font-size="15" '
                     f'text-anchor="middle" fill="#111111">{_esc(title)}</text>')
    return parts


class _Frame:
    """Data-to-pixel mapping plus the axes/grid/labels boilerplate."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi, logx=False):
        if logx:
            x_lo = max(x_lo, 1e-12)
            x_hi = max(x_hi, x_lo * 10)
            self._xl, self._xh = math.log10(x_lo), math.log10(x_hi)
        else:
            if not x_hi > x_lo:
                x_hi = x_lo + 1.0
            self._xl, self._xh = x_lo, x_hi
        if not y_hi > y_lo:
            y_hi, y_lo = y_lo + 1.0, y_lo - 1.0
        pad = 0.04 * (y_hi - y_lo)
        self._yl, self._yh = y_lo - pad, y_hi + pad
        self.logx = logx
        self.x_lo, self.x_hi = x_lo, x_hi

    def px(self, x: float) -> float:
        t = math.log10(max(x, 1e-300)) if self.logx else x
        frac = (t - self._xl) / (self._xh - self._xl)
        return ML + frac * (WIDTH - ML - MR)

    def py(self, y: float) -> float:
        frac = (y - self._yl) / (self._yh - self._yl)
        return HEIGHT - MB - frac * (HEIGHT - MB - MT)

    def axes(self, xlabel: str, ylabel: str, title: str) -> list[str]:
        parts = [_PLOT_BORDER]
        xticks = (_log_ticks(self.x_lo, self.x_hi) if self.logx
                  else _nice_ticks(self._xl, self._xh))
        for t in xticks:
            x = self.px(t)
            parts.append(f'<line x1="{_fmt(x)}" y1="{HEIGHT - MB}" x2="{_fmt(x)}" '
                         f'y2="{HEIGHT - MB + 5}" stroke="#333333"/>')
            parts.append(f'<text x="{_fmt(x)}" y="{HEIGHT - MB + 18}" font-size="11" '
                         f'text-anchor="middle" fill="#333333">{_fmt(t)}</text>')
        for t in _nice_ticks(self._yl, self._yh):
            y = self.py(t)
            parts.append(f'<line x1="{ML - 5}" y1="{_fmt(y)}" x2="{ML}" '
                         f'y2="{_fmt(y)}" stroke="#333333"/>')
            parts.append(f'<text x="{ML - 8}" y="{_fmt(y + 4)}" font-size="11" '
                         f'text-anchor="end" fill="#333333">{_fmt(t)}</text>')
            parts.append(f'<line x1="{ML}" y1="{_fmt(y)}" x2="{WIDTH - MR}" '
                         f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="0.5"/>')
        return parts + _labels(xlabel, ylabel, title)


def _legend(labels: list[str]) -> list[str]:
    parts = []
    y = MT + 14
    x0 = WIDTH - MR - 170
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<line x1="{x0}" y1="{y}" x2="{x0 + 22}" y2="{y}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x0 + 28}" y="{y + 4}" font-size="11" '
                     f'fill="#333333">{_esc(label)}</text>')
        y += 16
    return parts


def _document(body: list[str], path) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    doc = "\n".join([head, f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
                     *body, "</svg>"]) + "\n"
    Path(path).write_text(doc, encoding="utf-8")
    return doc


def line_chart(series, path, *, logx=False, xlabel="", ylabel="", title=""):
    """series: list of (label, xs, ys). Writes an SVG file at path."""
    if not series or any(len(xs) == 0 or len(xs) != len(ys) for _, xs, ys in series):
        raise ValueError("each series needs equal-length, non-empty xs and ys")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    if logx:
        pos = [x for x in all_x if x > 0]
        if not pos:
            raise ValueError("log-x needs at least one positive x value")
        fr = _Frame(min(pos), max(pos), min(all_y), max(all_y), logx=True)
    else:
        fr = _Frame(min(all_x), max(all_x), min(all_y), max(all_y))
    body = fr.axes(xlabel, ylabel, title)
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = []
        for x, y in zip(xs, ys):
            if logx and x <= 0:
                continue
            pts.append(f"{_fmt(fr.px(x))},{_fmt(fr.py(y))}")
        if len(pts) == 1:
            cx, cy = pts[0].split(",")
            body.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        else:
            body.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                        f'stroke="{color}" stroke-width="1.8"/>')
    body.extend(_legend([label for label, _, _ in series]))
    return _document(body, path)


def scatter_chart(series, path, *, xlabel="", ylabel="", title=""):
    """series: list of (label, xs, ys) drawn as dots."""
    if not series or any(len(xs) == 0 or len(xs) != len(ys) for _, xs, ys in series):
        raise ValueError("each series needs equal-length, non-empty xs and ys")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    fr = _Frame(min(all_x), max(all_x), min(all_y), max(all_y))
    body = fr.axes(xlabel, ylabel, title)
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        for x, y in zip(xs, ys):
            body.append(f'<circle cx="{_fmt(fr.px(x))}" cy="{_fmt(fr.py(y))}" '
                        f'r="2.5" fill="{color}" fill-opacity="0.75"/>')
    body.extend(_legend([label for label, _, _ in series]))
    return _document(body, path)


def _heat_color(frac: float) -> str:
    lo, hi = (247, 251, 255), (8, 48, 107)
    r = round(lo[0] + frac * (hi[0] - lo[0]))
    g = round(lo[1] + frac * (hi[1] - lo[1]))
    b = round(lo[2] + frac * (hi[2] - lo[2]))
    return f"#{r:02x}{g:02x}{b:02x}"


def _tick_label(v) -> str:
    return _esc(_fmt(v) if isinstance(v, (int, float)) else v)


def heatmap_chart(cells, path, *, xlabel="", ylabel="", title=""):
    """cells: list of (x, y, value) over a discrete grid; missing cells
    stay white."""
    if not cells:
        raise ValueError("heatmap needs at least one cell")
    xs = sorted({c[0] for c in cells})
    ys = sorted({c[1] for c in cells})
    vals = [c[2] for c in cells]
    v_lo, v_hi = min(vals), max(vals)
    span = (v_hi - v_lo) or 1.0
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    cw = (WIDTH - ML - MR) / len(xs)
    ch = (HEIGHT - MT - MB) / len(ys)
    body = [_PLOT_BORDER]
    for x, y, v in cells:
        px = ML + xi[x] * cw
        py = HEIGHT - MB - (yi[y] + 1) * ch
        body.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cw)}" '
                    f'height="{_fmt(ch)}" fill="{_heat_color((v - v_lo) / span)}"/>')
    step_x = max(1, len(xs) // 10)
    for i, v in enumerate(xs):
        if i % step_x:
            continue
        body.append(f'<text x="{_fmt(ML + (i + 0.5) * cw)}" y="{HEIGHT - MB + 16}" '
                    f'font-size="10" text-anchor="middle" fill="#333333">{_tick_label(v)}</text>')
    step_y = max(1, len(ys) // 12)
    for i, v in enumerate(ys):
        if i % step_y:
            continue
        body.append(f'<text x="{ML - 6}" y="{_fmt(HEIGHT - MB - (i + 0.5) * ch + 3)}" '
                    f'font-size="10" text-anchor="end" fill="#333333">{_tick_label(v)}</text>')
    body.append(f'<text x="{WIDTH - MR}" y="{MT - 8}" font-size="11" text-anchor="end" '
                f'fill="#333333">range {_fmt(v_lo)} to {_fmt(v_hi)}</text>')
    return _document(body + _labels(xlabel, ylabel, title), path)
