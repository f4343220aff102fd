"""Report files derived from a results CSV.

Three views: per-benchmark/method outcome fractions (stacked bars),
outcome fractions against fault count up to the cutoff (line chart), and
per-benchmark SDC quality distributions (summary table plus violin-style
shapes built from plain histograms). Every file is a pure function of the
records, so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .harness import (
    FAULT_COUNT_CUTOFF,
    HW_FI,
    METHODS,
    RND_FI,
    AggregateReport,
    aggregate,
    format_quality,
    quality_summary,
)
from .svg import SvgCanvas

OUTCOME_COLORS = {"correct": "#4caf50", "sdc": "#ff9800", "crash": "#f44336"}
METHOD_COLORS = {HW_FI: "#1f77b4", RND_FI: "#d62728"}


def _fractions_csv(key_header: str, fractions: dict) -> str:
    """One row of outcome fractions per key of a (key pair -> OutcomeFractions) view."""
    lines = [key_header + ",n,correct,sdc,crash"]
    for (a, b), fr in fractions.items():
        lines.append(f"{a},{b},{fr.n}," + ",".join(map(format_quality, (fr.correct, fr.sdc, fr.crash))))
    return "\n".join(lines) + "\n"


def classification_csv(report: AggregateReport) -> str:
    return _fractions_csv("benchmark,method", report.classification)


def counts_csv(report: AggregateReport) -> str:
    return _fractions_csv("method,fault_count", report.by_fault_count)


def quality_summary_csv(report: AggregateReport) -> str:
    lines = ["benchmark,method,count,min,q1,median,q3,max,mean"]
    for (bench, method), values in report.quality.items():
        s = quality_summary(values)
        lines.append(
            f"{bench},{method},{s['count']},"
            + ",".join(format_quality(s[k]) for k in ("min", "q1", "median", "q3", "max", "mean"))
        )
    return "\n".join(lines) + "\n"


def quality_values_csv(report: AggregateReport) -> str:
    lines = ["benchmark,method,value"]
    for (bench, method), values in report.quality.items():
        for v in values:
            lines.append(f"{bench},{method},{format_quality(v)}")
    return "\n".join(lines) + "\n"


def classification_svg(report: AggregateReport) -> str:
    benches = sorted({b for b, _ in report.classification})
    left, top, bar_w, gap, group_gap, plot_h = 50, 30, 26, 6, 26, 220
    width = left + len(benches) * (2 * bar_w + gap + group_gap) + 150
    height = top + plot_h + 60
    c = SvgCanvas(width, height)
    c.text(left, 18, "Outcome fractions per benchmark and method", size=13)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = top + plot_h * (1 - frac)
        c.line(left - 4, y, width - 130, y, "#dddddd")
        c.text(left - 8, y + 4, f"{frac:.2f}", size=9, anchor="end")
    x = left
    for bench in benches:
        for method in METHODS:
            fr = report.classification.get((bench, method))
            if fr is not None:
                y = top + plot_h
                for part, value in (("correct", fr.correct), ("sdc", fr.sdc), ("crash", fr.crash)):
                    h = plot_h * value
                    y -= h
                    c.rect(x, y, bar_w, h, OUTCOME_COLORS[part])
                c.text(x + bar_w / 2, top + plot_h + 12, method.split("_")[0], size=8, anchor="middle")
            x += bar_w + (gap if method == HW_FI else 0)
        c.text(x - bar_w - gap / 2, top + plot_h + 26, bench, size=10, anchor="middle")
        x += group_gap
    ly = top
    for part, color in OUTCOME_COLORS.items():
        c.rect(width - 120, ly, 12, 12, color)
        c.text(width - 104, ly + 10, part, size=10)
        ly += 18
    return c.to_xml()


def counts_svg(report: AggregateReport) -> str:
    left, top, plot_w, plot_h = 50, 30, 420, 220
    width = left + plot_w + 170
    height = top + plot_h + 50
    c = SvgCanvas(width, height)
    c.text(left, 18, f"Outcome fractions vs fault count (<= {FAULT_COUNT_CUTOFF} bits)", size=13)
    counts = sorted({k for _, k in report.by_fault_count})
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = top + plot_h * (1 - frac)
        c.line(left, y, left + plot_w, y, "#dddddd")
        c.text(left - 4, y + 4, f"{frac:.2f}", size=9, anchor="end")
    if counts:
        span = max(FAULT_COUNT_CUTOFF - 1, 1)

        def xpos(count):
            return left + plot_w * (count - 1) / span

        for k in counts:
            c.text(xpos(k), top + plot_h + 14, str(k), size=9, anchor="middle")
        dashes = {"correct": None, "sdc": "5,3", "crash": "2,2"}
        for method in METHODS:
            for part, dash in dashes.items():
                pts = []
                for k in counts:
                    fr = report.by_fault_count.get((method, k))
                    if fr is not None:
                        pts.append((xpos(k), top + plot_h * (1 - getattr(fr, part))))
                if pts:
                    c.polyline(pts, METHOD_COLORS[method], dash=dash)
        ly = top
        for method in METHODS:
            for part, dash in dashes.items():
                c.polyline([(left + plot_w + 16, ly + 5), (left + plot_w + 44, ly + 5)],
                           METHOD_COLORS[method], dash=dash)
                c.text(left + plot_w + 50, ly + 9, f"{method.split('_')[0]} {part}", size=9)
                ly += 16
    return c.to_xml()


def _violin_points(values, x_center, y0, height, half_width, bins=16):
    v = np.asarray(sorted(values), dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        hi = lo + 1.0
    hi = max(hi, lo + lo * 2.0 ** -40)  # 16 bins wider than the float spacing at a huge lo
    hist, edges = np.histogram(v, bins=bins, range=(lo, hi))
    peak = hist.max() if hist.max() > 0 else 1
    right = []
    for i, h in enumerate(hist):
        mid = (edges[i] + edges[i + 1]) / 2
        y = y0 + height * (1 - (mid - lo) / (hi - lo))
        right.append((x_center + half_width * h / peak, y))
    left = [(2 * x_center - x, y) for x, y in reversed(right)]
    return right + left, lo, hi


def quality_svg(report: AggregateReport) -> str:
    benches = sorted({b for b, _ in report.quality})
    panel_h, panel_w, left, top = 170, 220, 60, 30
    width = left + panel_w + 120
    height = top + max(1, len(benches)) * (panel_h + 30) + 30
    c = SvgCanvas(width, height)
    c.text(left, 18, "SDC output quality per benchmark (violin shapes)", size=13)
    y0 = top
    for bench in benches:
        combined = [v for m in METHODS for v in report.quality.get((bench, m), ())]
        if combined:
            for i, method in enumerate(METHODS):
                values = report.quality.get((bench, method), ())
                if not values:
                    continue
                xc = left + panel_w * (0.3 + 0.4 * i)
                pts, lo, hi = _violin_points(values, xc, y0, panel_h, panel_w * 0.16)
                c.polygon(pts, METHOD_COLORS[method] + "55", stroke=METHOD_COLORS[method])
                mean = float(np.mean(values))
                ym = y0 + panel_h * (1 - (mean - lo) / (hi - lo)) if hi > lo else y0 + panel_h / 2
                c.circle(xc, ym, 2.5, "#ffffff")
                c.text(xc, y0 + panel_h + 12, method.split("_")[0], size=9, anchor="middle")
            c.text(left - 8, y0 + 8, format_quality(max(combined)), size=8, anchor="end")
            c.text(left - 8, y0 + panel_h, format_quality(min(combined)), size=8, anchor="end")
        c.text(left + panel_w + 10, y0 + panel_h / 2, bench, size=11)
        y0 += panel_h + 30
    return c.to_xml()


def write_reports(records, out_dir) -> list[str]:
    """Emit all report files into out_dir; returns the file names."""
    report = aggregate(records)
    files = {
        "classification.csv": classification_csv(report),
        "classification.svg": classification_svg(report),
        "counts.csv": counts_csv(report),
        "counts.svg": counts_svg(report),
        "quality_summary.csv": quality_summary_csv(report),
        "quality_values.csv": quality_values_csv(report),
        "quality.svg": quality_svg(report),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_bytes(text.encode("utf-8"))
    return sorted(files)
