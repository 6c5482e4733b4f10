"""Chrome ``trace_event`` exporter.

Converts a campaign trace (a sequence of :class:`~repro.obs.trace.CellTrace`
records) into the Chrome Trace Event JSON format, so a run opens directly in
``chrome://tracing`` or https://ui.perfetto.dev:

* each campaign **cell** becomes one *process* (pid), labelled with its
  coordinates (``"mct m0 rep0"``) through a ``process_name`` metadata event;
* within a cell, events land on one *thread* (tid) per actor — the server
  named in the event's payload, or the ``agent`` lane for dispatch/monitor/
  HTM traffic — labelled through ``thread_name`` metadata events;
* every trace event becomes an instant event (``"ph": "i"``) at
  ``ts = virtual seconds x 1e6`` (the format counts microseconds) with the
  full payload under ``args``;
* metric samples (:class:`~repro.obs.metrics.CellMetrics`) become counter
  events (``"ph": "C"``): one track per metric family (``queue``, ``util``,
  ``inflight``, ...), with per-server series as that track's ``args`` — the
  stacked counter lanes render alongside the event slices of the same cell.

The export is a pure function of the trace: pids are cell positions in
planned order, tids are assigned over the sorted set of actor names, so the
JSON is byte-identical whenever the trace is — the schema golden test pins
exactly that.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import CellMetrics
from .trace import CellTrace, TraceEvent

__all__ = ["chrome_trace", "write_chrome_trace"]

#: Payload keys that name the actor an event belongs to, in priority order.
_ACTOR_KEYS = ("server",)

#: The lane for events not tied to one server (dispatch decisions, monitor
#: deliveries carry a server field and land on that server's lane instead).
_AGENT_LANE = "agent"


def _actor(event: TraceEvent) -> str:
    data = dict(event.data)
    for key in _ACTOR_KEYS:
        value = data.get(key)
        if isinstance(value, str) and value:
            return value
    return _AGENT_LANE


def _counter_events(cell: CellMetrics, pid: int) -> List[Dict[str, object]]:
    """Chrome ``"C"`` counter events of one cell's metric samples.

    Columns group into families on the first dot — ``queue.big0`` lands on
    the ``queue`` track with args key ``big0``, a scalar column like
    ``inflight`` becomes its own track with args key ``value`` — so a family
    renders as one stacked counter lane per cell.  Families and their series
    are emitted sorted: the export stays a pure function of the samples.
    """
    families: Dict[str, List[Tuple[str, int]]] = {}
    for index, column in enumerate(cell.columns):
        family, _, series = column.partition(".")
        families.setdefault(family, []).append((series or "value", index))
    events: List[Dict[str, object]] = []
    for i, t in enumerate(cell.times):
        for family in sorted(families):
            events.append(
                {
                    "name": family,
                    "ph": "C",
                    "ts": t * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        series: cell.values[index][i]
                        for series, index in sorted(families[family])
                    },
                }
            )
    return events


def chrome_trace(
    cell_traces: Sequence[CellTrace],
    cell_metrics: Optional[Sequence[CellMetrics]] = None,
) -> Dict[str, object]:
    """Build the Chrome Trace Event JSON object for a campaign trace.

    ``cell_metrics`` adds counter tracks: a metrics cell whose coordinates
    match a traced cell shares that cell's pid (counters render under the
    same process as its slices); unmatched metrics cells get fresh pids with
    their own ``process_name`` metadata.
    """
    trace_events: List[Dict[str, object]] = []
    pids: Dict[Tuple[str, int, int], int] = {}

    def register(heuristic: str, metatask_index: int, repetition: int) -> int:
        pid = len(pids) + 1
        pids[(heuristic, metatask_index, repetition)] = pid
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{heuristic} m{metatask_index} rep{repetition}"},
            }
        )
        return pid

    for cell in cell_traces:
        pid = register(cell.heuristic, cell.metatask_index, cell.repetition)
        actors = sorted({_actor(event) for event in cell.events} | {_AGENT_LANE})
        tids = {name: tid for tid, name in enumerate(actors, start=1)}
        for name, tid in sorted(tids.items(), key=lambda item: item[1]):
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        for event in cell.events:
            trace_events.append(
                {
                    "name": event.kind,
                    "cat": event.kind.split(".", 1)[0],
                    "ph": "i",
                    "s": "t",  # instant scoped to its thread lane
                    "ts": event.t * 1e6,
                    "pid": pid,
                    "tid": tids[_actor(event)],
                    "args": dict(event.data),
                }
            )
    for cell in cell_metrics or ():
        key = (cell.heuristic, cell.metatask_index, cell.repetition)
        pid = pids.get(key)
        if pid is None:
            pid = register(*key)
        trace_events.extend(_counter_events(cell, pid))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual",
            "note": "ts is simulated time in microseconds, not wall time",
        },
    }


def write_chrome_trace(
    path: str,
    cell_traces: Sequence[CellTrace],
    cell_metrics: Optional[Sequence[CellMetrics]] = None,
) -> int:
    """Write the Chrome trace JSON for ``cell_traces``; returns the event count."""
    from ..store.journal import atomic_write_text  # deferred: store -> results -> obs

    document = chrome_trace(cell_traces, cell_metrics)
    atomic_write_text(
        path, json.dumps(document, separators=(",", ":"), allow_nan=False) + "\n"
    )
    return len(document["traceEvents"])
