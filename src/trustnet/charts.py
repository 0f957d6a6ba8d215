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
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .errors import SchemaViolationError
from .snapshot import (
    read_count,
    read_fields,
    read_json,
    read_list_of,
    read_number,
    read_object,
)

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


def _line(kind: str, x1: float, y1: float, x2: float, y2: float) -> str:
    return f'<line class="{kind}" x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}"/>'


def _tick(x: float, y: float, anchor: str, label: int) -> str:
    return f'<text x="{_f(x)}" y="{_f(y)}" text-anchor="{anchor}">{label}</text>'


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + PLOT_H
    return [
        _line("axis", x0, y0, x0 + PLOT_W, y0),
        _line("axis", x0, MARGIN_TOP, x0, y0),
        f'<text x="{_f(x0 + PLOT_W / 2 - 30)}" y="{_f(HEIGHT - 12)}">{x_label}</text>',
        f'<text x="14" y="{_f(MARGIN_TOP + PLOT_H / 2)}" '
        f'transform="rotate(-90 14 {_f(MARGIN_TOP + PLOT_H / 2)})">{y_label}</text>',
    ]


def degree_histogram_svg(hist: dict[int, int]) -> str:
    """Linear-scale bar chart of a degree histogram."""
    k_max = max(hist, default=0) + 1
    c_max = max(hist.values(), default=0)
    c_top = max(c_max, 1)
    slot = PLOT_W / (k_max + 1)
    bar_w = slot * 0.85
    parts = _svg_open("Trust degree distribution")
    parts += _axes("degree", "agents")
    y_base = MARGIN_TOP + PLOT_H
    tick_step = max(1, -(-c_top // 5))
    level = tick_step
    while level <= c_top:
        y = y_base - PLOT_H * level / c_top
        parts.append(_line("grid", MARGIN_LEFT, y, MARGIN_LEFT + PLOT_W, y))
        parts.append(_tick(MARGIN_LEFT - 8, y + 4, "end", level))
        level += tick_step
    label_every = max(1, k_max // 12)
    for degree in sorted(hist.keys() | range(0, k_max + 1, label_every)):
        count = hist.get(degree, 0)
        x = MARGIN_LEFT + slot * degree + (slot - bar_w) / 2
        if count > 0:
            h = PLOT_H * count / c_top
            parts.append(
                f'<rect class="bar" x="{_f(x)}" y="{_f(y_base - h)}" '
                f'width="{_f(bar_w)}" height="{_f(h)}"/>'
            )
        if degree % label_every == 0:
            parts.append(_tick(x + bar_w / 2, y_base + 16, "middle", degree))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def degree_loglog_svg(
    hist: dict[int, int],
    gamma: Optional[float] = None,
    k_min: Optional[int] = None,
) -> str:
    """Log-log scatter of (degree, count) with an optional -gamma slope line.

    The reference line is anchored at the first populated tail degree and
    drawn with slope -gamma in log space; it is omitted when no fit is
    supplied (e.g. the tail was too small to fit).
    """
    points = sorted(
        (k, c) for k, c in hist.items() if k >= 1 and c >= 1
    )
    parts = _svg_open("Degree distribution (log-log)")
    parts += _axes("log10 degree", "log10 agents")
    if points:
        x_hi = max(1.0, math.log10(points[-1][0]))
        y_hi = max(1.0, math.log10(max(c for _, c in points)))
        x0, y_base = MARGIN_LEFT, MARGIN_TOP + PLOT_H

        def px(k: float) -> float:
            return x0 + PLOT_W * math.log10(k) / x_hi

        def py(c: float) -> float:
            return y_base - PLOT_H * math.log10(c) / y_hi

        decade = 1
        while decade <= points[-1][0]:
            parts.append(_line("grid", px(decade), MARGIN_TOP, px(decade), y_base))
            parts.append(_tick(px(decade), y_base + 16, "middle", decade))
            decade *= 10
        decade = 1
        while decade <= max(c for _, c in points):
            parts.append(_tick(x0 - 8, py(decade) + 4, "end", decade))
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


def histogram_csv(hist: dict[int, int], key_label: str = "degree") -> str:
    lines = [f"{key_label},count"]
    lines += [f"{key},{hist[key]}" for key in sorted(hist)]
    return "\n".join(lines) + "\n"


def binned_csv(boundaries: Sequence[int], counts: Sequence[int]) -> str:
    """Export bins given as boundaries [b0, b1, ...] with len-1 counts."""
    lines = ["low,high,count"]
    for i, count in enumerate(counts):
        lines.append(f"{boundaries[i]},{boundaries[i + 1]},{count}")
    return "\n".join(lines) + "\n"


def sweep_csv(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


# Readers for the metrics document, in snapshot.read_fields' reader(value, name)
# form. Histogram keys and counts become chart coordinates, so must fit a float.


def read_histogram(value: Any, name: str) -> dict[int, int]:
    """Canonical decimal keys (no two read as one int) to counts in [0, 2**53]."""
    hist = {}
    for key, count in read_object(value, name).items():
        if not (key.isdecimal() and len(key) <= 308 and str(int(key)) == key):
            raise SchemaViolationError(
                f"{name} key {key!r} must be a canonical decimal below 10**308"
            )
        read_number(count, f"{name}[{key}]")
        hist[int(key)] = read_count(count, f"{name}[{key}]")
        if hist[int(key)] > 2**53:  # the renderers' float arithmetic stays finite
            raise SchemaViolationError(f"{name}[{key}] may not exceed 2**53")
    return hist


def _read_counts(value: Any, name: str) -> list[int]:
    return [read_count(item, f"{name}[]") for item in read_list_of(value, name, object)]


def _read_exponent(value: Any, name: str) -> float:
    gamma = read_number(value, name)
    if gamma <= 0:
        raise SchemaViolationError(f"{name} must be positive")
    return gamma


def _section(readers: dict) -> Callable[[Any, str], Optional[dict]]:
    """Reader for an optional object section; null reads as absent."""
    return lambda value, name: None if value is None else read_fields(
        read_object(value, name), readers, {}, f"{name}."
    )


_METRICS_FIELDS = {
    "degree_histogram_api": read_histogram,
    "degree_histogram_nonself": read_histogram,
    "powerlaw_fit": _section({"gamma": _read_exponent, "k_min": read_count}),
    "address_delta_histogram": _section({"histogram": read_histogram}),
    "dunbar_bins": _section({"boundaries": _read_counts, "counts": _read_counts}),
}


def read_metrics(doc: Any) -> dict:
    """Every field the report renders, typed; an absent section reads as None."""
    optional = dict.fromkeys(("powerlaw_fit", "address_delta_histogram", "dunbar_bins"))
    metrics = read_fields(read_object(doc, "metrics document"), _METRICS_FIELDS, optional)
    bins = metrics["dunbar_bins"]
    if bins and len(bins["boundaries"]) != len(bins["counts"]) + 1:
        raise SchemaViolationError("dunbar_bins needs one more boundary than counts")
    return metrics


def render_report_artifacts(metrics: Any, out_dir: Union[str, Path]) -> list[Path]:
    """Write every chart and histogram export for one metrics document.

    The parsed JSON document is read in full before the directory is made.
    Returns the written paths in a fixed order.
    """
    doc = read_metrics(metrics)
    api, nonself = doc["degree_histogram_api"], doc["degree_histogram_nonself"]
    outputs = [
        ("degree_histogram.svg", degree_histogram_svg(api)),
        ("degree_loglog.svg", degree_loglog_svg(nonself, **(doc["powerlaw_fit"] or {}))),
        ("degree_histogram_api.csv", histogram_csv(api)),
        ("degree_histogram_nonself.csv", histogram_csv(nonself)),
    ]
    if doc["address_delta_histogram"]:
        delta = histogram_csv(doc["address_delta_histogram"]["histogram"], key_label="delta")
        outputs.append(("address_delta_histogram.csv", delta))
    if doc["dunbar_bins"]:
        outputs.append(("dunbar_bins.csv", binned_csv(**doc["dunbar_bins"])))
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in outputs:
        (directory / name).write_text(text, encoding="utf-8")
    return [directory / name for name, _ in outputs]


def load_metrics(path: Union[str, Path]) -> dict:
    doc = read_json(Path(path).read_bytes(), "metrics document")
    return read_object(doc, "metrics document")
