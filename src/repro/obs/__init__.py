"""Observability: virtual-time tracing, hot-path counters, profiling.

The telemetry layer of the reproduction (see README "Observability &
profiling"):

* :mod:`repro.obs.trace` — the structured trace bus: zero-overhead-when-off
  :class:`Tracer` hooks in the middleware, agent and HTM emit virtual-time
  :class:`TraceEvent` records; campaign traces serialise to deterministic
  JSONL, byte-identical at any ``--jobs`` level;
* :mod:`repro.obs.chrome` — Chrome ``trace_event`` export (opens in
  ``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.counters` — rollups of the fluid core's and HTM's plain-int
  hot-path counters (heap pushes, lazy deletions, cache hits, ...);
* :mod:`repro.obs.metrics` — fixed-interval virtual-time metric time-series
  (queue depth, utilization, in-flight, staleness, windowed throughput /
  latency) with byte-stable JSONL / CSV serialisation;
* :mod:`repro.obs.dashboard` — offline renderers over those series: TTY
  sparklines and a single-file inline-SVG HTML report (stdlib only);
* :mod:`repro.obs.instrumentation` — :class:`Instrumentation`, the one
  execution-only value saying what a campaign observes (trace, ring bound,
  metrics interval and window);
* :mod:`repro.obs.report` — the per-campaign :class:`PerfReport`
  (``perf-report.json``), its counter fields rolled up from the campaign's
  table by :func:`counter_rollup`;
* :mod:`repro.obs.wallclock` — the *single* sanctioned home for wall-clock
  reads in the package (the DET-CLOCK lint rule exempts ``repro/obs/`` and
  nothing else);
* :mod:`repro.obs.profile` — the ``repro profile`` harness.  It
  sits on top of the scenario/campaign layers, so import it explicitly
  (``from repro.obs import profile``) — it is intentionally not re-exported
  here to keep ``import repro.platform`` (which imports this package) free
  of an import cycle.

Determinism contract: trace events and counters derive from virtual time and
simulation state only and never enter records, fingerprints or golden
tables; wall-clock values live exclusively in the perf report.
"""

from .wallclock import PhaseTimer, perf_counter
from .trace import (
    CellTrace,
    TraceEvent,
    Tracer,
    event_line,
    read_trace_jsonl,
    write_trace_jsonl,
)
from .counters import merge_counters, middleware_counters
from .metrics import (
    CellMetrics,
    MetricSeries,
    MetricsSampler,
    SeriesView,
    read_metrics_jsonl,
    views_from_rows,
    write_metrics_csv,
    write_metrics_jsonl,
)
from .dashboard import (
    render_metrics_html,
    render_metrics_text,
    sparkline,
    write_metrics_html,
)
from .chrome import chrome_trace, write_chrome_trace
from .instrumentation import Instrumentation
from .report import PerfReport, counter_rollup

__all__ = [
    "PhaseTimer",
    "perf_counter",
    "TraceEvent",
    "Tracer",
    "CellTrace",
    "event_line",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "merge_counters",
    "middleware_counters",
    "MetricSeries",
    "MetricsSampler",
    "CellMetrics",
    "SeriesView",
    "write_metrics_jsonl",
    "read_metrics_jsonl",
    "write_metrics_csv",
    "views_from_rows",
    "sparkline",
    "render_metrics_text",
    "render_metrics_html",
    "write_metrics_html",
    "chrome_trace",
    "write_chrome_trace",
    "Instrumentation",
    "PerfReport",
    "counter_rollup",
]
