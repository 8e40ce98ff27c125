"""Deterministic artifact writers: JSON, CSV, config hashes, small SVG plots.

Every run artifact must be byte-identical across reruns with the same
configuration, so these writers take pains that nothing non-reproducible
leaks in: keys are sorted, floats go through repr (shortest round-trip
form), nothing records a timestamp or hostname, and the SVG writer lays
out its own polylines instead of pulling in a plotting stack.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# ============================================================
# canonical JSON
# ============================================================


def jsonable(obj):
    """Recursively coerce numpy scalars/arrays, tuples, paths, dataclasses."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return jsonable(float(obj))   # through the non-finite guard below
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Path):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(dataclasses.asdict(obj))
    if isinstance(obj, float) and not math.isfinite(obj):
        # json emits bare NaN/Infinity tokens, which many readers reject
        return repr(obj)
    return obj


def dumps_json(doc: dict) -> str:
    return json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n"


def write_json(path, doc: dict) -> None:
    Path(path).write_text(dumps_json(doc), encoding="utf-8")


def config_hash(doc: dict) -> str:
    """sha256 of the canonical (sorted, compact) JSON form of a config."""
    blob = json.dumps(jsonable(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ============================================================
# CSV
# ============================================================


def format_float(x) -> str:
    return repr(float(x))


def write_csv(path, columns: dict, header_lines=()) -> None:
    """Column-oriented CSV with '# ' comment header lines and repr floats."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    if any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("CSV columns must share a length")
    cells = [map(repr, a.astype(float).tolist()) for a in arrays]
    lines = [f"# {h}" for h in header_lines]
    lines.append(",".join(names))
    lines.extend(",".join(row) for row in zip(*cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ============================================================
# SVG line plots
# ============================================================

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, log: bool):
    if log:
        k0 = int(math.ceil(math.log10(lo) - 1e-9))
        k1 = int(math.floor(math.log10(hi) + 1e-9))
        step = max(1, (k1 - k0) // 6)
        return [10.0 ** k for k in range(k0, k1 + 1, step)]
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    t0 = math.ceil(lo / step) * step
    out = []
    t = t0
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def svg_plot(path, series, *, title: str = "", xlabel: str = "", ylabel: str = "",
             logx: bool = False, logy: bool = False) -> None:
    """Write a 720 x 480 line plot to an SVG file.

    ``series`` is a list of (label, x, y) triples.  Non-finite points (and,
    on log axes, non-positive ones) split a curve into separate segments
    rather than being silently dropped into a connecting stroke.
    """
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 64.0, 18.0, 34.0, 46.0
    pw, ph = width - ml - mr, height - mt - mb

    xs, ys = [], []
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = np.isfinite(x) & np.isfinite(y)
        if logx:
            ok &= x > 0
        if logy:
            ok &= y > 0
        cleaned.append((label, x, y, ok))
        xs.append(x[ok])
        ys.append(y[ok])
    xall = np.concatenate(xs) if xs else np.array([0.0, 1.0])
    yall = np.concatenate(ys) if ys else np.array([0.0, 1.0])
    if xall.size == 0 or yall.size == 0:
        xall, yall = np.array([0.1, 1.0]), np.array([0.1, 1.0])

    def _range(v, log):
        lo, hi = float(v.min()), float(v.max())
        if log:
            pad = (hi / lo) ** 0.04 if hi > lo else 2.0
            return lo / pad, hi * pad
        pad = 0.04 * (hi - lo) if hi > lo else max(abs(hi), 1.0)
        return lo - pad, hi + pad

    x0, x1 = _range(xall, logx)
    y0, y1 = _range(yall, logy)
    lx0, lx1 = (math.log10(x0), math.log10(x1)) if logx else (x0, x1)
    ly0, ly1 = (math.log10(y0), math.log10(y1)) if logy else (y0, y1)

    def frac(v, log, lo, hi):
        """Where v (a float or an array) falls on an axis; log10 by math, point by point."""
        if log:
            v = np.array(list(map(math.log10, v.tolist()))) if isinstance(v, np.ndarray) \
                else math.log10(v)
        return (v - lo) / (hi - lo)

    def px(v):
        return ml + frac(v, logx, lx0, lx1) * pw

    def py(v):
        return mt + (1.0 - frac(v, logy, ly0, ly1)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{ml:g}" y="{mt:g}" width="{pw:g}" height="{ph:g}" fill="none" '
        f'stroke="#444444" stroke-width="1"/>',
    ]
    font = 'font-family="Helvetica,Arial,sans-serif"'
    if title:
        parts.append(f'<text x="{width / 2:.2f}" y="{mt - 12:.2f}" text-anchor="middle" '
                     f'{font} font-size="14">{title}</text>')
    for tv in _ticks(x0, x1, logx):
        if not (x0 <= tv <= x1):
            continue
        X = px(tv)
        parts.append(f'<line x1="{X:.2f}" y1="{mt + ph:.2f}" x2="{X:.2f}" '
                     f'y2="{mt + ph + 5:.2f}" stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{X:.2f}" y="{mt + ph + 18:.2f}" text-anchor="middle" '
                     f'{font} font-size="11">{tv:.6g}</text>')
    for tv in _ticks(y0, y1, logy):
        if not (y0 <= tv <= y1):
            continue
        Y = py(tv)
        parts.append(f'<line x1="{ml - 5:.2f}" y1="{Y:.2f}" x2="{ml:.2f}" y2="{Y:.2f}" '
                     f'stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{ml - 8:.2f}" y="{Y + 4:.2f}" text-anchor="end" '
                     f'{font} font-size="11">{tv:.6g}</text>')
    if xlabel:
        parts.append(f'<text x="{ml + pw / 2:.2f}" y="{height - 10:.2f}" '
                     f'text-anchor="middle" {font} font-size="12">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{mt + ph / 2:.2f}" text-anchor="middle" {font} '
                     f'font-size="12" transform="rotate(-90 16 {mt + ph / 2:.2f})">'
                     f'{ylabel}</text>')

    for k, (label, x, y, ok) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        xy = np.column_stack([px(x[ok]), py(y[ok])]).ravel().tolist()
        good = np.flatnonzero(ok)
        # runs of consecutive good points, as [a, b) into the good ones
        cuts = [0, *(np.flatnonzero(np.diff(good) > 1) + 1).tolist(), good.size]
        for a, b in zip(cuts, cuts[1:]):
            if b - a < 2:
                continue
            seg = " ".join(["%.2f,%.2f"] * (b - a)) % tuple(xy[2 * a:2 * b])
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                         f'points="{seg}"/>')
        if label:
            Yl = mt + 16 + 16 * k
            parts.append(f'<line x1="{ml + pw - 120:.2f}" y1="{Yl - 4:.2f}" '
                         f'x2="{ml + pw - 96:.2f}" y2="{Yl - 4:.2f}" stroke="{color}" '
                         f'stroke-width="1.5"/>')
            parts.append(f'<text x="{ml + pw - 90:.2f}" y="{Yl:.2f}" {font} '
                         f'font-size="11">{label}</text>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
