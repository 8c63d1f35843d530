"""Deterministic SVG rendering of a monodromy report.

Left panel: real slice of the Cerf diagram in the (u, v) window with the
value band |v| <= eta, drawn from the Puiseux series of Delta, which are
solved here: the analysis keeps only their exact structure.  Right
panel: orbit traces of the tracked fiber points in the u-plane, colored
by cycle; fixed points get a double ring.
All numbers are formatted with a fixed precision so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import math

from mpmath import mpf

from .puiseux import puiseux_branches
from .report import AnalysisResult
from .tracking import _cycles

_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

WIDTH, HEIGHT = 880, 460
PANEL = 400
MARGIN = 30


def _fmt(x) -> str:
    return f"{float(x):.4f}"


class _Frame:
    """Maps data coordinates into one square SVG panel."""

    def __init__(self, x0, y0, xmin, xmax, ymin, ymax):
        self.x0, self.y0 = x0, y0
        self.xmin, self.xmax = xmin, xmax
        self.ymin, self.ymax = ymin, ymax

    def map(self, x, y):
        sx = self.x0 + (x - self.xmin) / (self.xmax - self.xmin) * PANEL
        sy = self.y0 + PANEL - (y - self.ymin) / (self.ymax - self.ymin) * PANEL
        return sx, sy

    def polyline(self, pts, color, width="1.2", dash=None):
        mapped = " ".join(
            f"{_fmt(sx)},{_fmt(sy)}" for sx, sy in (self.map(x, y) for x, y in pts)
        )
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
            f'{extra} points="{mapped}"/>'
        )

    def circle(self, x, y, r_px, color, fill="none", width="1.2"):
        sx, sy = self.map(x, y)
        return (
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{_fmt(r_px)}" '
            f'stroke="{color}" fill="{fill}" stroke-width="{width}"/>'
        )

    def frame_rect(self):
        return (
            f'<rect x="{_fmt(self.x0)}" y="{_fmt(self.y0)}" width="{PANEL}" '
            f'height="{PANEL}" fill="none" stroke="#333333" stroke-width="1"/>'
        )

    def axes(self):
        parts = []
        if self.xmin < 0 < self.xmax:
            parts.append(self.polyline([(0, self.ymin), (0, self.ymax)], "#bbbbbb", "0.8"))
        if self.ymin < 0 < self.ymax:
            parts.append(self.polyline([(self.xmin, 0), (self.xmax, 0)], "#bbbbbb", "0.8"))
        return parts


def _text(x, y, s, size=13, color="#222222"):
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{size}" fill="{color}">{_escape(s)}</text>'
    )


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(result: AnalysisResult) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(MARGIN, 20, f"germ: {result.germ_text}   line: {result.line}"),
    ]
    if result.diagram.is_empty or result.permutation is None:
        frame = _Frame(MARGIN, 40, -1.0, 1.0, -1.0, 1.0)
        parts.append(frame.frame_rect())
        parts.extend(frame.axes())
        parts.append(_text(MARGIN + 14, 40 + PANEL / 2, "empty polar curve:", 14))
        parts.append(
            _text(MARGIN + 14, 40 + PANEL / 2 + 20, "fibration is a product with a disc", 12)
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    radii = result.radii
    perm = result.permutation
    rho = float(radii.rho)
    eta = float(radii.eta)

    # left: real slice of the diagram, the only reader of the series
    branch_samples = []
    vmax = eta
    for branch in puiseux_branches(result.diagram.defining).branches:
        e = branch.ramification_index
        tmax = (rho / 2) ** (1.0 / e)
        pts = []
        n = 128
        for k in range(-n, n + 1):
            t = tmax * k / n
            u = t**e
            v = sum(
                float((c.center * mpf(t) ** m).real)
                for m, c in zip(branch.exponents, branch.coefficients)
            )
            pts.append((u, v))
            vmax = max(vmax, abs(v))
        branch_samples.append(pts)
    left = _Frame(MARGIN, 40, -rho / 2 * 1.1, rho / 2 * 1.1, -vmax * 1.15, vmax * 1.15)
    parts.append(left.frame_rect())
    parts.extend(left.axes())
    parts.append(
        left.polyline([(-rho / 2 * 1.1, eta), (rho / 2 * 1.1, eta)], "#888888", "0.8", dash="4,3")
    )
    parts.append(
        left.polyline([(-rho / 2 * 1.1, -eta), (rho / 2 * 1.1, -eta)], "#888888", "0.8", dash="4,3")
    )
    for idx, pts in enumerate(branch_samples):
        parts.append(left.polyline(pts, _COLORS[idx % len(_COLORS)]))
    parts.append(_text(MARGIN, 40 + PANEL + 18, "Cerf diagram, real slice (u, v); dashes: |v| = eta"))

    # right: orbit traces in the u-plane
    right_x = MARGIN + PANEL + 50
    span = rho / 2 * 1.15
    right = _Frame(right_x, 40, -span, span, -span, span)
    parts.append(right.frame_rect())
    parts.extend(right.axes())
    circle_pts = []
    for k in range(97):
        ang = 2 * math.pi * k / 96
        circle_pts.append((rho / 2 * math.cos(ang), rho / 2 * math.sin(ang)))
    parts.append(right.polyline(circle_pts, "#cccccc", "0.8", dash="2,3"))
    cycle_of = {i: c for c, cycle in enumerate(_cycles(perm.sigma)) for i in cycle}
    for i, trace in enumerate(perm.orbit_traces):
        stride = max(1, len(trace) // 192)
        pts = list(trace[::stride])
        if pts[-1] != trace[-1]:
            pts.append(trace[-1])
        parts.append(right.polyline(pts, _COLORS[cycle_of[i] % len(_COLORS)], "1.0"))
    for i, ball in enumerate(perm.base_points):
        x, y = float(ball.center.real), float(ball.center.imag)
        color = _COLORS[cycle_of[i] % len(_COLORS)]
        parts.append(right.circle(x, y, 3.0, color, fill=color))
        if i in perm.fixed_points:
            parts.append(right.circle(x, y, 6.0, "#000000"))
    parts.append(
        _text(right_x, 40 + PANEL + 18,
              f"orbits in the u-plane; m={perm.m} cycles={list(perm.cycle_type)} "
              f"fixed={list(perm.fixed_points)}")
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(result: AnalysisResult, path: str) -> None:
    """Write the report figure; byte-identical for identical inputs."""
    content = render_svg(result)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
