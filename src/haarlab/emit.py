"""Deterministic output formatting: CSV with 17-significant-digit
floats, JSON summaries, and a dependency-free SVG histogram emitter.

Byte reproducibility is a contract here: identical inputs must yield
identical file bytes, so everything routes through fixed format strings
and sorted JSON keys.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

from .errors import HaarlabError


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def csv_bytes(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    """CSV with floats at full precision and everything else via str."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _refuse_non_finite(value, path: str) -> None:
    """HaarlabError naming the key path, such as ['a'][0], of the first
    float inside value that is NaN or infinite."""
    if isinstance(value, float) and not math.isfinite(value):
        raise HaarlabError(f"JSON value at {path or 'the root'} is {value}, "
                           "not a finite number")
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        _refuse_non_finite(item, f"{path}[{key!r}]")


def json_bytes(payload) -> bytes:
    """payload as sorted, indented JSON; a NaN or infinite float, which
    strict JSON cannot hold, raises HaarlabError naming its key path."""
    _refuse_non_finite(payload, "")
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def svg_histogram(edges, density, overlay, title: str) -> bytes:
    """Histogram bars plus an overlay curve as a standalone 640 x 400 SVG.

    edges/density describe the bars; overlay is a sequence of (x, y)
    pairs drawn as a polyline over the same axes.
    """
    width, height, margin = 640, 400, 50.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    x_lo = float(edges[0])
    x_hi = float(edges[-1])
    y_hi = max([float(d) for d in density] +
               [float(y) for _x, y in overlay] + [1e-9]) * 1.1

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return height - margin - y / y_hi * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    for i, d in enumerate(density):
        x0 = sx(float(edges[i]))
        x1 = sx(float(edges[i + 1]))
        y = sy(float(d))
        h = height - margin - y
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" '
            f'height="{h:.2f}" fill="#9ecae1" stroke="#6baed6" '
            f'stroke-width="0.5"/>')
    if overlay:
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                       for x, y in overlay)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="#d62728" stroke-width="1.8"/>')
    axis = (f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="black"/>'
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
            f'y2="{height - margin}" stroke="black"/>')
    parts.append(axis)
    for k in range(5):
        x = x_lo + (x_hi - x_lo) * k / 4
        parts.append(
            f'<text x="{sx(x):.1f}" y="{height - margin + 18:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{x:.2f}</text>')
    parts.append(f'<text x="{margin - 8:.1f}" y="{sy(y_hi / 1.1):.1f}" '
                 f'text-anchor="end" font-family="sans-serif" '
                 f'font-size="11">{y_hi / 1.1:.2f}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()
