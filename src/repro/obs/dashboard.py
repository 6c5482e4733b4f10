"""Offline dashboards over metric time-series.

Two renderers over :class:`~repro.obs.metrics.SeriesView` sequences, both
pure functions of their input (no wall clocks, no randomness, no third-party
dependencies — stdlib string building only), so the outputs are byte-stable
and snapshot-testable:

* :func:`render_metrics_text` — TTY sparklines (``repro metrics show``): one
  block-character strip per (cell, column) with min / mean / max;
* :func:`render_metrics_html` — a single-file self-contained HTML report
  (``repro metrics plot``): one inline-SVG chart per column with one polyline
  per cell, a colour legend and axis extents.  Opening the file needs
  nothing but a browser; comparing heuristics or scenarios is just passing
  several series (the CLI prefixes each input file's label).
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import SeriesView

__all__ = [
    "sparkline",
    "render_metrics_text",
    "render_metrics_html",
    "write_metrics_html",
]

#: Eight-level block characters of the sparkline strips.
SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Polyline colours, cycled over cells (Okabe-Ito palette: colour-blind safe).
PALETTE = (
    "#0072b2",
    "#d55e00",
    "#009e73",
    "#cc79a7",
    "#e69f00",
    "#56b4e9",
    "#f0e442",
    "#000000",
)


def _bucket_means(values: Sequence[float], width: int) -> List[float]:
    """Resample ``values`` to at most ``width`` buckets of means."""
    n = len(values)
    if n <= width:
        return [float(v) for v in values]
    out: List[float] = []
    for b in range(width):
        lo = b * n // width
        hi = max((b + 1) * n // width, lo + 1)
        chunk = values[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """One block-character strip for ``values``, resampled to ``width``.

    A flat series renders as a flat baseline strip; an empty one as "".
    """
    if not values:
        return ""
    if width < 1:
        raise ValueError("width must be >= 1")
    points = _bucket_means(values, width)
    lo = min(points)
    hi = max(points)
    span = hi - lo
    if span <= 0.0:
        return SPARK_LEVELS[0] * len(points)
    top = len(SPARK_LEVELS) - 1
    return "".join(
        SPARK_LEVELS[min(top, int((value - lo) / span * len(SPARK_LEVELS)))]
        for value in points
    )


def _select_columns(
    views: Sequence[SeriesView], columns: Optional[Sequence[str]]
) -> List[str]:
    """Requested columns, or the union of the views' columns in first-seen order."""
    if columns:
        return list(columns)
    out: List[str] = []
    for view in views:
        for name in view.columns:
            if name not in out:
                out.append(name)
    return out


def _fmt(value: float) -> str:
    """Compact display float (display only — persisted floats use json text)."""
    text = f"{value:.6g}"
    return text


def render_metrics_text(
    views: Sequence[SeriesView],
    columns: Optional[Sequence[str]] = None,
    width: int = 48,
) -> str:
    """TTY summary: per cell, one sparkline strip per column."""
    views = list(views)
    names = _select_columns(views, columns)
    samples = sum(len(view.times) for view in views)
    lines = [
        f"metrics: {len(views)} cell(s), {samples} sample(s), "
        f"{len(names)} column(s)"
    ]
    name_width = max((len(name) for name in names), default=0)
    for view in views:
        if not view.times:
            lines.append(f"{view.label} — no samples (recovered from store?)")
            continue
        lines.append(
            f"{view.label} — {len(view.times)} samples, "
            f"t {_fmt(view.times[0])}..{_fmt(view.times[-1])} s"
        )
        for name in names:
            values = view.columns.get(name)
            if values is None:
                continue
            lo = min(values)
            hi = max(values)
            mean = sum(values) / len(values)
            lines.append(
                f"  {name:<{name_width}}  min {_fmt(lo):>10}  "
                f"mean {_fmt(mean):>10}  max {_fmt(hi):>10}  "
                f"{sparkline(values, width)}"
            )
    return "\n".join(lines)


def _svg_points(
    times: Sequence[float],
    values: Sequence[float],
    t_span: Tuple[float, float],
    v_span: Tuple[float, float],
    size: Tuple[int, int],
) -> str:
    """The ``points`` attribute of one polyline, in chart coordinates."""
    t_lo, t_hi = t_span
    v_lo, v_hi = v_span
    w, h = size
    dt = (t_hi - t_lo) or 1.0
    dv = (v_hi - v_lo) or 1.0
    coords = []
    for t, v in zip(times, values):
        x = (t - t_lo) / dt * w
        y = h - (v - v_lo) / dv * h
        coords.append(f"{x:.2f},{y:.2f}")
    return " ".join(coords)


def render_metrics_html(
    views: Sequence[SeriesView],
    columns: Optional[Sequence[str]] = None,
    title: str = "metrics report",
) -> str:
    """Single-file HTML report: one inline-SVG chart per column.

    Self-contained by construction — inline CSS, inline SVG, zero external
    references — and a pure function of its input, so the report bytes are
    stable and the golden snapshot test can pin them.
    """
    views = list(views)
    names = _select_columns(views, columns)
    chart_w, chart_h = 640, 120
    parts = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        "<style>",
        "body{font-family:monospace;margin:1.5em;background:#fafafa;color:#222}",
        "h1{font-size:1.2em}h2{font-size:1em;margin:1.2em 0 0.2em}",
        ".legend span{margin-right:1.2em}",
        ".chart{background:#fff;border:1px solid #ccc}",
        ".extent{color:#777;font-size:0.85em}",
        "</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p>{len(views)} series, {len(names)} metric(s); "
        "time axis is <em>virtual</em> (simulated) seconds.</p>",
        '<p class="legend">',
    ]
    for i, view in enumerate(views):
        colour = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<span style="color:{colour}">&#9632; {html.escape(view.label)}</span>'
        )
    parts.append("</p>")
    for name in names:
        with_column = [
            (i, v) for i, v in enumerate(views) if name in v.columns and v.times
        ]
        parts.append(f"<h2>{html.escape(name)}</h2>")
        if not with_column:
            parts.append('<p class="extent">no samples</p>')
            continue
        t_lo = min(v.times[0] for _, v in with_column)
        t_hi = max(v.times[-1] for _, v in with_column)
        v_lo = min(min(v.columns[name]) for _, v in with_column)
        v_hi = max(max(v.columns[name]) for _, v in with_column)
        parts.append(
            f'<svg class="chart" width="{chart_w}" height="{chart_h}" '
            f'viewBox="0 0 {chart_w} {chart_h}">'
        )
        for i, view in with_column:
            colour = PALETTE[i % len(PALETTE)]
            points = _svg_points(
                view.times,
                view.columns[name],
                (t_lo, t_hi),
                (v_lo, v_hi),
                (chart_w, chart_h),
            )
            parts.append(
                f'<polyline fill="none" stroke="{colour}" stroke-width="1.5" '
                f'points="{points}"/>'
            )
        parts.append("</svg>")
        parts.append(
            f'<p class="extent">t {_fmt(t_lo)}..{_fmt(t_hi)} s — '
            f"value {_fmt(v_lo)}..{_fmt(v_hi)}</p>"
        )
    parts.append("</body></html>")
    return "\n".join(parts)


def write_metrics_html(
    path: str,
    views: Sequence[SeriesView],
    columns: Optional[Sequence[str]] = None,
    title: str = "metrics report",
) -> str:
    """Write the HTML report to ``path`` and return the path."""
    from ..store.journal import atomic_write_text  # deferred: store -> results -> obs

    return atomic_write_text(
        path, render_metrics_html(views, columns=columns, title=title) + "\n"
    )
