"""Hand-rolled SVG 1.1 figures: suboptimality curves and step-size traces.

No plotting dependency; the emitted documents are plain XML so tests can
parse them back and recover the plotted series from `data-*` attributes.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

from .harness import Trace

_WIDTH, _HEIGHT = 720, 480
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 60, 160, 20, 40
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")
_SUBOPT_FLOOR = 1e-16


def _axes(x0, x1, y0, y1):
    """Pixel mappers for data ranges [x0,x1] x [y0,y1]."""
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    px0, px1 = _PAD_L, _WIDTH - _PAD_R
    py0, py1 = _HEIGHT - _PAD_B, _PAD_T

    def fx(x):
        return px0 + (x - x0) / (x1 - x0) * (px1 - px0)

    def fy(y):
        return py0 + (y - y0) / (y1 - y0) * (py1 - py0)

    return fx, fy


def _header(title):
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_PAD_L}" y="14" font-size="13" '
        f'font-family="sans-serif">{escape(title)}</text>',
    ]


def _frame(fx, fy, x0, x1, y0, y1, xlabel, ylabel):
    out = []
    out.append(f'<line x1="{fx(x0):.2f}" y1="{fy(y0):.2f}" '
               f'x2="{fx(x1):.2f}" y2="{fy(y0):.2f}" stroke="black"/>')
    out.append(f'<line x1="{fx(x0):.2f}" y1="{fy(y0):.2f}" '
               f'x2="{fx(x0):.2f}" y2="{fy(y1):.2f}" stroke="black"/>')
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        out.append(f'<text x="{fx(xv):.2f}" y="{_HEIGHT - _PAD_B + 16}" '
                   f'font-size="10" font-family="sans-serif" '
                   f'text-anchor="middle">{xv:.4g}</text>')
        out.append(f'<text x="{_PAD_L - 6}" y="{fy(yv) + 3:.2f}" '
                   f'font-size="10" font-family="sans-serif" '
                   f'text-anchor="end">{yv:.4g}</text>')
    out.append(f'<text x="{(_PAD_L + _WIDTH - _PAD_R) / 2:.0f}" '
               f'y="{_HEIGHT - 6}" font-size="12" '
               f'font-family="sans-serif" '
               f'text-anchor="middle">{escape(xlabel)}</text>')
    out.append(f'<text x="14" y="{_HEIGHT / 2:.0f}" font-size="12" '
               f'font-family="sans-serif" text-anchor="middle" '
               f'transform="rotate(-90 14 {_HEIGHT / 2:.0f})">'
               f'{escape(ylabel)}</text>')
    return out


def _legend_entry(i, label, color, dashed=False):
    y = _PAD_T + 16 + 18 * i
    x = _WIDTH - _PAD_R + 12
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<line x1="{x}" y1="{y}" x2="{x + 24}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
            f'<text x="{x + 30}" y="{y + 4}" font-size="11" '
            f'font-family="sans-serif">{escape(label)}</text>')


def _close(out, path):
    """Close the document's lines and write them to `path`, if any."""
    out.append("</svg>")
    doc = "\n".join(out) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
    return doc


def emit_subopt_svg(traces: list[Trace], fstar: float, path: str) -> str:
    """log10(f - f*) against iteration, one polyline per trace, labelled
    with its method."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    labels = [t.config.method for t in traces]
    series = []
    for t in traces:
        fs = [t.f0] + [r.f for r in t.records]
        series.append([math.log10(max(f - fstar, _SUBOPT_FLOOR))
                       for f in fs])
    x1 = max(len(s) - 1 for s in series)
    flat = [v for s in series for v in s]
    y0, y1 = min(flat), max(flat)
    fx, fy = _axes(0, x1, y0, y1)
    out = _header("sub-optimality vs iteration")
    out += _frame(fx, fy, 0, x1, y0, y1, "iteration", "log10(f - f*)")
    for i, (s, label) in enumerate(zip(series, labels)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{fx(k):.2f},{fy(v):.2f}" for k, v in enumerate(s))
        vals = " ".join("%.17g" % v for v in s)
        out.append(f'<polyline fill="none" stroke="{color}" '
                   f'stroke-width="1.5" data-series="{escape(label)}" '
                   f'data-values="{vals}" points="{pts}"/>')
        out.append(_legend_entry(i, label, color))
    return _close(out, path)


_STEP_FIELDS = (("alpha1", False), ("beta1", True),
                ("alpha2", False), ("beta2", True), ("gamma", False))
_STEP_FLOOR = 1e-16


def emit_steps_svg(traces: list[Trace], path: str) -> str:
    """log10 |step size| per iteration; solid learning rates, dashed
    momentum rates, a circle marker wherever the raw entry is negative."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    many = len(traces) > 1
    series = []   # (label, dashed, values, negatives)
    for t in traces:
        prefix = t.config.method + ":" if many else ""
        for fld, dashed in _STEP_FIELDS:
            raw = [getattr(r, fld) for r in t.records]
            if all(v is None for v in raw):
                continue
            vals, negs = [], []
            for k, v in enumerate(raw, start=1):
                if v is None:
                    continue
                vals.append((k, math.log10(max(abs(v), _STEP_FLOOR))))
                if v < 0:
                    negs.append(k)
            series.append((prefix + fld, dashed, vals, negs))
    if not series:
        raise ValueError("traces carry no step-size records")
    x1 = max(k for _, _, vals, _ in series for k, _ in vals)
    flat = [v for _, _, vals, _ in series for _, v in vals]
    y0, y1 = min(flat), max(flat)
    fx, fy = _axes(0, x1, y0, y1)
    out = _header("step sizes vs iteration (log10 |value|)")
    out += _frame(fx, fy, 0, x1, y0, y1, "iteration", "log10 |step|")
    for i, (label, dashed, vals, negs) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        pts = " ".join(f"{fx(k):.2f},{fy(v):.2f}" for k, v in vals)
        data = " ".join(f"{k}:%.17g" % v for k, v in vals)
        out.append(f'<polyline fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash} '
                   f'data-series="{escape(label)}" '
                   f'data-values="{data}"/>')
        out.append(f'<polyline fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash} points="{pts}"/>')
        lookup = dict(vals)
        for k in negs:
            out.append(f'<circle cx="{fx(k):.2f}" cy="{fy(lookup[k]):.2f}" '
                       f'r="3.5" fill="{color}" '
                       f'data-series="{escape(label)}" '
                       f'data-negative="{k}"/>')
        out.append(_legend_entry(i, label, color, dashed))
    return _close(out, path)
