"""Tiny deterministic SVG writer: just enough shapes for the reports."""

from __future__ import annotations


def _f(x: float) -> str:
    return f"{x:.2f}"


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self._parts: list[str] = []

    def rect(self, x, y, w, h, fill):
        self._parts.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" fill="{fill}"/>')

    def line(self, x1, y1, x2, y2, stroke):
        self._parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" stroke="{stroke}" stroke-width="1.00"/>'
        )

    def polyline(self, points, stroke, dash=None):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="1.50"{d}/>')

    def polygon(self, points, fill, stroke=None):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        s = f' stroke="{stroke}"' if stroke else ""
        self._parts.append(f'<polygon points="{pts}" fill="{fill}"{s}/>')

    def circle(self, cx, cy, r, fill):
        self._parts.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}"/>')

    def text(self, x, y, s, size=11, anchor="start"):
        esc = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self._parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}">{esc}</text>'
        )

    def to_xml(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
        )
        return head + "\n".join(self._parts) + "\n</svg>\n"
