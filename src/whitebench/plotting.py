"""Deterministic static SVG line charts from results CSV files.

The writer is hand-rolled string assembly (no plotting library) so that the
same results file always produces byte-identical SVG output: grouped
polylines, optional log axes, a legend, and shaded bands of twice the
standard error across seeds.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

from .dataio import open_in_place, read_input
from .errors import ConfigError, ParseError

PALETTE = ("#4C72B0", "#55A868", "#C44E52", "#8172B2", "#CCB974", "#64B5CD", "#937860")

WIDTH, HEIGHT = 640.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 160.0, 40.0, 50.0


@dataclass(frozen=True)
class PlotSpec:
    x: str
    y: str
    group: str
    logx: bool = False
    logy: bool = False
    title: str = ""

    @staticmethod
    def from_config(cfg) -> "PlotSpec":
        """The [plot] section of a RunConfig; unset optional keys take their schema defaults."""
        missing = [k for k in ("x", "y", "group") if k not in cfg.plot]
        if missing:
            raise ConfigError(f"[plot] section is missing keys: {missing}")
        return PlotSpec(**{f.name: cfg.get("plot", f.name) for f in fields(PlotSpec)})


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _mean_and_band(values):
    m = sum(values) / len(values)
    if len(values) < 2:
        return m, 0.0
    var = sum((v - m) ** 2 for v in values) / (len(values) - 1)
    return m, 2.0 * math.sqrt(var / len(values))


def _read_groups(results_path, spec: PlotSpec):
    reader = csv.DictReader(io.StringIO(read_input(results_path, what="results file"), newline=""))
    header = reader.fieldnames or []
    for col in (spec.x, spec.y, spec.group):
        if col not in header:
            raise ConfigError(f"results file has no column {col!r}")
    groups: dict = {}
    for row in reader:
        if row[spec.y] in ("", None) or row[spec.x] in ("", None):
            continue
        try:
            x, y = float(row[spec.x]), float(row[spec.y])
        except ValueError as exc:
            raise ParseError(f"{results_path}: line {reader.line_num}: {exc}") from None
        groups.setdefault(row[spec.group], {}).setdefault(x, []).append(y)
    if not groups:
        raise ConfigError("no plottable rows (y column empty everywhere)")
    return groups


class _Scale:
    def __init__(self, lo, hi, out_lo, out_hi, log):
        if log:
            if lo <= 0:
                raise ConfigError("log axis needs positive values")
            lo, hi = math.log10(lo), math.log10(hi)
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        self.lo, self.hi, self.out_lo, self.out_hi, self.log = lo, hi, out_lo, out_hi, log

    def __call__(self, v):
        t = (math.log10(v) if self.log else v) - self.lo
        return self.out_lo + (self.out_hi - self.out_lo) * t / (self.hi - self.lo)

    def ticks(self, count=5):
        if self.log:
            lo, hi = math.floor(self.lo), math.ceil(self.hi)
            decades = range(int(lo), int(hi) + 1)
            return [10.0 ** p for p in decades if self.lo - 1e-9 <= p <= self.hi + 1e-9] or [10.0 ** lo]
        step = (self.hi - self.lo) / (count - 1)
        return [self.lo + i * step for i in range(count)]


def emit_plot(results_path, spec: PlotSpec, output_path):
    """Render one polyline (+ 2x standard-error band) per group value."""
    from xml.sax.saxutils import escape  # local: it imports urllib.request, costly at CLI start-up
    groups = _read_groups(results_path, spec)
    series = {}
    for key in sorted(groups):
        pts = sorted(
            (x, *_mean_and_band(ys)) for x, ys in groups[key].items()
        )
        series[key] = pts

    if spec.logy:
        # bands may cross zero; floor them at half the smallest positive mean
        floor = 0.5 * min(
            (m for pts in series.values() for (_, m, _) in pts if m > 0), default=1.0
        )
        series = {
            key: [(x, m, min(b, m - floor)) for (x, m, b) in pts]
            for key, pts in series.items()
        }
    xs = [x for pts in series.values() for (x, _, _) in pts]
    ylo = [m - b for pts in series.values() for (_, m, b) in pts]
    yhi = [m + b for pts in series.values() for (_, m, b) in pts]
    sx = _Scale(min(xs), max(xs), MARGIN_L, WIDTH - MARGIN_R, spec.logx)
    sy = _Scale(min(ylo), max(yhi), HEIGHT - MARGIN_B, MARGIN_T, spec.logy)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n',
        f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>\n',
    ]
    if spec.title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{escape(spec.title)}</text>\n'
        )
    # axes
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    parts.append(
        f'<path d="M {_fmt(x0)} {_fmt(MARGIN_T)} L {_fmt(x0)} {_fmt(y0)} '
        f'L {_fmt(WIDTH - MARGIN_R)} {_fmt(y0)}" stroke="black" fill="none"/>\n'
    )
    for tv in sx.ticks():
        px = sx(tv)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" y2="{_fmt(y0 + 5)}" stroke="black"/>\n')
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 18)}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{tv:.3g}</text>\n'
        )
    for tv in sy.ticks():
        py = sy(tv)
        parts.append(f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" y2="{_fmt(py)}" stroke="black"/>\n')
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{tv:.3g}</text>\n'
        )
    parts.append(
        f'<text x="{_fmt((x0 + WIDTH - MARGIN_R) / 2)}" y="{_fmt(HEIGHT - 12)}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{escape(spec.x)}</text>\n'
    )
    parts.append(
        f'<text x="16" y="{_fmt((MARGIN_T + y0) / 2)}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" transform="rotate(-90 16 {_fmt((MARGIN_T + y0) / 2)})">{escape(spec.y)}</text>\n'
    )

    for i, (key, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        if any(b > 0 for (_, _, b) in pts) and len(pts) > 1:
            upper = " ".join(f"{_fmt(sx(x))},{_fmt(sy(m + b))}" for (x, m, b) in pts)
            lower = " ".join(f"{_fmt(sx(x))},{_fmt(sy(m - b))}" for (x, m, b) in reversed(pts))
            parts.append(f'<polygon points="{upper} {lower}" fill="{color}" fill-opacity="0.2" stroke="none"/>\n')
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(m))}" for (x, m, _) in pts)
        if len(pts) == 1:
            (x, m, _b) = pts[0]
            parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(m))}" r="4" fill="{color}"/>\n')
        else:
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>\n')
        ly = MARGIN_T + 16 * i
        lx = WIDTH - MARGIN_R + 12
        parts.append(f'<rect x="{_fmt(lx)}" y="{_fmt(ly)}" width="10" height="10" fill="{color}"/>\n')
        parts.append(
            f'<text x="{_fmt(lx + 14)}" y="{_fmt(ly + 9)}" font-family="monospace" '
            f'font-size="11">{escape(f"{spec.group}={key}")}</text>\n'
        )
    parts.append("</svg>\n")
    with open_in_place(output_path) as fh:
        fh.write("".join(parts))
    return output_path
