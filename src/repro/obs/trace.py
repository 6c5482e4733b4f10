"""Virtual-time structured trace bus.

A :class:`Tracer` collects typed :class:`TraceEvent` records from hook sites
in the middleware, the agent, the HTM and the campaign engine.  The bus is
built around two contracts:

* **zero overhead when off** — hook sites hold an ``Optional[Tracer]`` and
  guard every emission with ``if tracer is not None``; a run without a tracer
  executes not a single extra bytecode beyond that check, so tracing can ship
  enabled-by-flag in the hot path without moving the benchmarks;
* **determinism** — every event is stamped with *virtual* (simulated) time
  and payload values derived from the simulation state only.  No wall clocks,
  no object ids, no pids: a traced run serialises byte-identically at any
  ``--jobs`` level and across campaign-store temperatures.  Wall-clock
  measurements belong in :mod:`repro.obs.wallclock` / the profile report.

Events serialise to JSON Lines (one compact object per line, insertion-order
keys) via :func:`event_line` / :func:`write_trace_jsonl`; the Chrome
``trace_event`` exporter over the same records lives in
:mod:`repro.obs.chrome`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TraceEvent",
    "Tracer",
    "CellTrace",
    "event_line",
    "write_trace_jsonl",
    "read_trace_jsonl",
]


@dataclass(frozen=True)
class TraceEvent:
    """One structured event on the bus.

    ``t`` is the *virtual* time of the event (seconds on the simulation
    clock), ``kind`` a dotted event type (``"task.dispatch"``,
    ``"htm.predict"``, ``"fault.outage.begin"``, ...), and ``data`` the typed
    payload as ``(key, value)`` pairs — a tuple, not a dict, so the record is
    hashable, immutable and cheaply picklable when a worker process ships its
    cell trace back to the campaign assembler.
    """

    t: float
    kind: str
    data: Tuple[Tuple[str, object], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """The event as one flat JSON-ready mapping (``t`` and ``kind`` first)."""
        out: Dict[str, object] = {"t": self.t, "kind": self.kind}
        out.update(self.data)
        return out


class Tracer:
    """Bounded collector of :class:`TraceEvent` records.

    ``limit`` bounds memory on million-task runs: the tracer keeps the most
    recent ``limit`` events as a ring and counts what it dropped
    (:attr:`dropped`), so a runaway trace degrades gracefully instead of
    eating the heap.  ``limit=None`` (the default) keeps everything.
    """

    __slots__ = ("_events", "limit", "dropped")

    def __init__(self, limit: Optional[int] = None):
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1 (or None for unbounded)")
        self.limit = limit
        self.dropped = 0
        self._events: Deque[TraceEvent] = deque(maxlen=limit)

    def emit(self, t: float, kind: str, **data: object) -> None:
        """Record one event at virtual time ``t``.

        Keyword order is preserved into the serialised payload, so hook sites
        control their field order (deterministically — it is call-site code,
        not hash order).
        """
        if self.limit is not None and len(self._events) == self.limit:
            self.dropped += 1
        self._events.append(TraceEvent(float(t), kind, tuple(data.items())))

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> Tuple[TraceEvent, ...]:
        """The collected events, in emission order."""
        return tuple(self._events)

    def __repr__(self) -> str:
        return f"<Tracer events={len(self._events)} dropped={self.dropped}>"


@dataclass(frozen=True)
class CellTrace:
    """The trace of one campaign cell, tagged with its coordinates.

    The coordinates — not any execution-order artefact — identify the cell,
    which is what makes a campaign trace file a pure function of the plan:
    cells are serialised in planned order whatever executor ran them.
    """

    heuristic: str
    metatask_index: int
    repetition: int
    events: Tuple[TraceEvent, ...] = ()
    #: Events dropped by the tracer's ring limit during this cell's run.
    dropped: int = 0

    @property
    def cell_id(self) -> str:
        """Human-readable coordinate tag (``"mct/m0/rep1"``)."""
        return f"{self.heuristic}/m{self.metatask_index}/rep{self.repetition}"


def event_line(event: TraceEvent, cell: Optional[CellTrace] = None) -> str:
    """Serialise one event to its canonical JSONL line (no newline).

    ``json.dumps`` with ``repr``-exact floats and compact separators: the
    line is a deterministic function of the event (and the cell coordinates
    when given), which is what the byte-identity tests diff.
    """
    payload: Dict[str, object] = {}
    if cell is not None:
        payload["cell"] = cell.cell_id
    payload.update(event.as_dict())
    return json.dumps(payload, separators=(",", ":"), allow_nan=False)


def write_trace_jsonl(path: str, cell_traces: Iterable[CellTrace]) -> int:
    """Write a campaign trace as JSON Lines; returns the number of lines.

    One line per event, cells in the given (planned) order, each line tagged
    with its cell coordinates.  A cell whose tracer dropped events contributes
    one ``trace.dropped`` marker line so truncation is never silent.
    """
    from ..store.journal import atomic_write_text  # deferred: store -> results -> obs

    lines: List[str] = []
    for cell in cell_traces:
        for event in cell.events:
            lines.append(event_line(event, cell))
        if cell.dropped:
            marker = TraceEvent(
                t=cell.events[0].t if cell.events else 0.0,
                kind="trace.dropped",
                data=(("count", cell.dropped),),
            )
            lines.append(event_line(marker, cell))
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)


def read_trace_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a trace file back as a list of flat event dicts."""
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
