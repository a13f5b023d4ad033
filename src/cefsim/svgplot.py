"""Minimal dependency-free SVG line plots used as quick-look companions
to the numeric output files.  The numeric files are the contract; these
plots carry no tested pixel guarantees.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
           "#aec7e8", "#ffbb78", "#98df8a", "#ff9896")

WIDTH, HEIGHT, MARGIN = 640, 400, 50


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _frame(title: str, xlabel: str, ylabel: str) -> list[str]:
    """Opening tag, background, plot box, title and axis labels."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="{MARGIN - 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{title}</text>')
    parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="14" y="{HEIGHT / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 14 {HEIGHT / 2})">{ylabel}</text>')
    return parts


def line_plot(path, xs: Sequence[float], series: dict[str, Sequence[float]],
              title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write a single-panel line plot; one polyline per named series."""
    xs = list(xs)
    all_y = [v for ys in series.values() for v in ys]
    if not xs or not all_y:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    parts = _frame(title, xlabel, ylabel)
    for tick, value in ((MARGIN, x_lo), (WIDTH - MARGIN, x_hi)):
        parts.append(f'<text x="{tick}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{value:.4g}</text>')
    for tick, value in ((HEIGHT - MARGIN, y_lo), (MARGIN, y_hi)):
        parts.append(f'<text x="{MARGIN - 6}" y="{tick + 4}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{value:.4g}</text>')

    for idx, (name, ys) in enumerate(series.items()):
        px = _scale(xs, x_lo, x_hi, MARGIN, WIDTH - MARGIN)
        py = _scale(ys, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = PALETTE[idx % len(PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 16 + 14 * idx}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def polyline_plot(path, polylines: Sequence[Sequence[tuple[float, float]]],
                  title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Phase-plane style plot: each polyline is a list of (x, y) points."""
    all_x = [p[0] for line in polylines for p in line]
    all_y = [p[1] for line in polylines for p in line]
    if not all_x:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    parts = _frame(title, xlabel, ylabel)
    for idx, line in enumerate(polylines):
        px = _scale([p[0] for p in line], x_lo, x_hi, MARGIN, WIDTH - MARGIN)
        py = _scale([p[1] for p in line], y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{PALETTE[idx % len(PALETTE)]}" stroke-width="1"/>')
        # arrowhead substitute: mark the terminal point
        parts.append(f'<circle cx="{px[-1]:.2f}" cy="{py[-1]:.2f}" r="2.5" '
                     f'fill="{PALETTE[idx % len(PALETTE)]}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
