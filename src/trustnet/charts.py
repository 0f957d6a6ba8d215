"""Deterministic chart and table exports for metrics documents.

Charts are hand-assembled SVG text: the same metrics document always
produces byte-identical files, which makes rendered artifacts diffable in
tests and across machines. Two charts are emitted — a linear-scale degree
histogram and a log-log degree scatter with the fitted power-law reference
line — plus a comma-separated export of every histogram in the document.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .errors import SchemaViolationError
from .snapshot import read_json

WIDTH = 640.0
HEIGHT = 400.0
MARGIN_LEFT = 70.0
MARGIN_RIGHT = 20.0
MARGIN_TOP = 40.0
MARGIN_BOTTOM = 50.0
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

_STYLE = (
    "text{font-family:monospace;font-size:12px;fill:#222}"
    ".title{font-size:14px;font-weight:bold}"
    ".axis{stroke:#222;stroke-width:1}"
    ".grid{stroke:#ddd;stroke-width:0.5}"
    ".bar{fill:#4878a8}"
    ".dot{fill:#30507c}"
    ".fit{stroke:#b03030;stroke-width:1.5;stroke-dasharray:6 3;fill:none}"
)


def _f(value: float) -> str:
    """Fixed-precision coordinate formatting keeps output byte-stable."""
    return f"{value:.2f}"


def _svg_open(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(WIDTH)}" '
        f'height="{int(HEIGHT)}" viewBox="0 0 {int(WIDTH)} {int(HEIGHT)}">',
        f"<style>{_STYLE}</style>",
        f'<text class="title" x="{_f(MARGIN_LEFT)}" y="24">{title}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + PLOT_H
    return [
        f'<line class="axis" x1="{_f(x0)}" y1="{_f(y0)}" '
        f'x2="{_f(x0 + PLOT_W)}" y2="{_f(y0)}"/>',
        f'<line class="axis" x1="{_f(x0)}" y1="{_f(MARGIN_TOP)}" '
        f'x2="{_f(x0)}" y2="{_f(y0)}"/>',
        f'<text x="{_f(x0 + PLOT_W / 2 - 30)}" y="{_f(HEIGHT - 12)}">{x_label}</text>',
        f'<text x="14" y="{_f(MARGIN_TOP + PLOT_H / 2)}" '
        f'transform="rotate(-90 14 {_f(MARGIN_TOP + PLOT_H / 2)})">{y_label}</text>',
    ]


def _coerce_histogram(histogram: Mapping) -> dict[int, int]:
    out: dict[int, int] = {}
    for key, value in histogram.items():
        try:
            out[int(key)] = int(value)
        except (TypeError, ValueError) as exc:
            raise SchemaViolationError(f"bad histogram entry {key!r}: {value!r}") from exc
    return out


def degree_histogram_svg(
    histogram: Mapping, title: str = "Trust degree distribution"
) -> str:
    """Linear-scale bar chart of a degree histogram."""
    hist = _coerce_histogram(histogram)
    k_max = max(hist, default=0) + 1
    c_max = max(hist.values(), default=0)
    c_top = max(c_max, 1)
    slot = PLOT_W / (k_max + 1)
    bar_w = slot * 0.85
    parts = _svg_open(title)
    parts += _axes("degree", "agents")
    y_base = MARGIN_TOP + PLOT_H
    tick_step = max(1, -(-c_top // 5))
    level = tick_step
    while level <= c_top:
        y = y_base - PLOT_H * level / c_top
        parts.append(
            f'<line class="grid" x1="{_f(MARGIN_LEFT)}" y1="{_f(y)}" '
            f'x2="{_f(MARGIN_LEFT + PLOT_W)}" y2="{_f(y)}"/>'
        )
        parts.append(
            f'<text x="{_f(MARGIN_LEFT - 8)}" y="{_f(y + 4)}" '
            f'text-anchor="end">{level}</text>'
        )
        level += tick_step
    label_every = max(1, k_max // 12)
    for degree in range(k_max + 1):
        count = hist.get(degree, 0)
        x = MARGIN_LEFT + slot * degree + (slot - bar_w) / 2
        if count > 0:
            h = PLOT_H * count / c_top
            parts.append(
                f'<rect class="bar" x="{_f(x)}" y="{_f(y_base - h)}" '
                f'width="{_f(bar_w)}" height="{_f(h)}"/>'
            )
        if degree % label_every == 0:
            parts.append(
                f'<text x="{_f(x + bar_w / 2)}" y="{_f(y_base + 16)}" '
                f'text-anchor="middle">{degree}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _log10(value: float) -> float:
    return math.log10(value)


def degree_loglog_svg(
    histogram: Mapping,
    gamma: Optional[float] = None,
    k_min: Optional[int] = None,
    title: str = "Degree distribution (log-log)",
) -> str:
    """Log-log scatter of (degree, count) with an optional -gamma slope line.

    The reference line is anchored at the first populated tail degree and
    drawn with slope -gamma in log space; it is omitted when no fit is
    supplied (e.g. the tail was too small to fit).
    """
    hist = _coerce_histogram(histogram)
    points = sorted(
        (k, c) for k, c in hist.items() if k >= 1 and c >= 1
    )
    parts = _svg_open(title)
    parts += _axes("log10 degree", "log10 agents")
    if points:
        x_hi = max(1.0, _log10(points[-1][0]))
        y_hi = max(1.0, _log10(max(c for _, c in points)))
        x0, y_base = MARGIN_LEFT, MARGIN_TOP + PLOT_H

        def px(k: float) -> float:
            return x0 + PLOT_W * _log10(k) / x_hi

        def py(c: float) -> float:
            return y_base - PLOT_H * _log10(c) / y_hi

        decade = 1
        while decade <= points[-1][0]:
            parts.append(
                f'<line class="grid" x1="{_f(px(decade))}" y1="{_f(MARGIN_TOP)}" '
                f'x2="{_f(px(decade))}" y2="{_f(y_base)}"/>'
            )
            parts.append(
                f'<text x="{_f(px(decade))}" y="{_f(y_base + 16)}" '
                f'text-anchor="middle">{decade}</text>'
            )
            decade *= 10
        decade = 1
        while decade <= max(c for _, c in points):
            parts.append(
                f'<text x="{_f(x0 - 8)}" y="{_f(py(decade) + 4)}" '
                f'text-anchor="end">{decade}</text>'
            )
            decade *= 10
        for k, c in points:
            parts.append(
                f'<circle class="dot" cx="{_f(px(k))}" cy="{_f(py(c))}" r="3"/>'
            )
        if gamma is not None and k_min is not None:
            anchors = [(k, c) for k, c in points if k >= k_min]
            if len(anchors) >= 2:
                k_a, c_a = anchors[0]
                k_b = points[-1][0]
                # keep the line above count 0.5 so it stays inside the frame
                c_b = c_a * (k_b / k_a) ** (-gamma)
                if c_b < 0.5:
                    k_b = k_a * (c_a / 0.5) ** (1.0 / gamma)
                    c_b = 0.5
                parts.append(
                    f'<path class="fit" d="M {_f(px(k_a))} {_f(py(c_a))} '
                    f'L {_f(px(k_b))} {_f(py(c_b))}"/>'
                )
                parts.append(
                    f'<text x="{_f(px(k_a) + 10)}" y="{_f(py(c_a) - 8)}">'
                    f"~k^-{gamma:.2f}</text>"
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_csv(histogram: Mapping, key_label: str = "degree") -> str:
    hist = _coerce_histogram(histogram)
    lines = [f"{key_label},count"]
    lines += [f"{key},{hist[key]}" for key in sorted(hist)]
    return "\n".join(lines) + "\n"


def binned_csv(boundaries: Sequence[int], counts: Sequence[int]) -> str:
    """Export bins given as boundaries [b0, b1, ...] with len-1 counts."""
    if len(boundaries) != len(counts) + 1:
        raise SchemaViolationError(
            f"{len(boundaries)} boundaries cannot frame {len(counts)} bins"
        )
    lines = ["low,high,count"]
    for i, count in enumerate(counts):
        lines.append(f"{boundaries[i]},{boundaries[i + 1]},{count}")
    return "\n".join(lines) + "\n"


def sweep_csv(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_report_artifacts(
    metrics: Mapping, out_dir: Union[str, Path]
) -> list[Path]:
    """Write every chart and histogram export for one metrics document.

    Accepts the analyzer's JSON document (or MetricsReport.to_dict()).
    Returns the written paths in a fixed order.
    """
    for field in ("degree_histogram_api", "degree_histogram_nonself"):
        if field not in metrics:
            raise SchemaViolationError(f"metrics document lacks {field}")
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    fit = metrics.get("powerlaw_fit")
    gamma = fit.get("gamma") if isinstance(fit, Mapping) else None
    k_min = fit.get("k_min") if isinstance(fit, Mapping) else None

    outputs: list[tuple[str, str]] = [
        (
            "degree_histogram.svg",
            degree_histogram_svg(metrics["degree_histogram_api"]),
        ),
        (
            "degree_loglog.svg",
            degree_loglog_svg(
                metrics["degree_histogram_nonself"], gamma=gamma, k_min=k_min
            ),
        ),
        (
            "degree_histogram_api.csv",
            histogram_csv(metrics["degree_histogram_api"]),
        ),
        (
            "degree_histogram_nonself.csv",
            histogram_csv(metrics["degree_histogram_nonself"]),
        ),
    ]
    delta = metrics.get("address_delta_histogram")
    if isinstance(delta, Mapping) and "histogram" in delta:
        outputs.append(
            (
                "address_delta_histogram.csv",
                histogram_csv(delta["histogram"], key_label="delta"),
            )
        )
    dunbar = metrics.get("dunbar_bins")
    if isinstance(dunbar, Mapping) and "boundaries" in dunbar:
        outputs.append(
            (
                "dunbar_bins.csv",
                binned_csv(dunbar["boundaries"], dunbar["counts"]),
            )
        )
    written = []
    for name, text in outputs:
        path = directory / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def load_metrics(path: Union[str, Path]) -> dict:
    doc = read_json(Path(path).read_bytes(), "metrics document")
    if not isinstance(doc, dict):
        raise SchemaViolationError("metrics document must be a JSON object")
    return doc
