"""Outside-in layer spans for the traced run of the end-to-end benchmark.

:func:`install` wraps public callables of the ``repro`` package at class
level, inside the measuring process only, and returns a :class:`Recorder`
that keeps the stack of open spans.  Nothing in ``repro`` knows about it.
A span covers one call of a wrapped callable; its *self* time is its
duration minus the duration of the spans it opened.

Spans are aggregated as they close (calls, total and self time per span
name, and per ``parent > child`` edge): a traced campaign opens 250,000 to
580,000 spans, too many to keep one record each.

Naming follows the modules of the layers:

* ``campaign.execute_cell`` (root of each cell), ``middleware.init``,
  ``middleware.run``;
* ``engine.step`` (one event of the calendar);
* ``server.submit``; ``monitor.sample`` (``ComputeServer.load_average`` and
  ``resident_task_count``, called by the load monitors) and
  ``monitor.receive`` (``Agent.receive_load_report``);
* ``agent.schedule``, ``agent.build_context``, ``agent.notify``;
* ``heuristic.select``;
* ``htm.predict``, ``htm.commit``, ``htm.sync`` (``notify_completion``,
  ``notify_failure``, ``clear_server``);
* ``fluid.whatif.<method>`` for a ``FluidNetwork`` call made while an
  ``htm.*`` span is open, ``fluid.truth.<method>`` otherwise.  A fluid call
  made inside another fluid span (``run_to_completion`` stepping
  ``advance_to``) is part of that span, not a span of its own.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: FluidNetwork methods called from outside the fluid core.
FLUID_METHODS = (
    "advance_to",
    "run_to_completion",
    "copy",
    "add_task",
    "remove_task",
    "set_capacity",
    "forget",
    "next_event_time",
    "unfinished_keys",
)


class Recorder:
    """The span stack and the per-name aggregates of one traced run."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[name, time spent in child spans]``.
        self.stack: List[list] = []
        #: ``name -> [calls, total_s, self_s]``.
        self.totals: Dict[str, List[float]] = {}
        #: ``(parent, child) -> [calls, total_s]``.
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        #: Duration (s) of each ``agent.schedule`` span: decision latency.
        self.schedule_durations = array("d")
        #: Length of ``completions_without`` of every HTM prediction.
        self.tracked = array("l")
        #: Duration (s) of each ``campaign.execute_cell`` span.
        self.cell_durations = array("d")
        self.in_fluid = False
        self.htm_depth = 0

    def _close(self, name: str, entry: list, duration: float) -> None:
        stack = self.stack
        stack.pop()
        parent = stack[-1][0] if stack else ""
        if stack:
            stack[-1][1] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - entry[1]
        edge = self.edges.get((parent, name))
        if edge is None:
            edge = self.edges[(parent, name)] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration

    def calls(self, *names: str, prefix: Optional[str] = None) -> int:
        return int(sum(t[0] for n, t in self._select(names, prefix)))

    def total_s(self, *names: str, prefix: Optional[str] = None) -> float:
        return sum(t[1] for n, t in self._select(names, prefix))

    def self_s(self, *names: str, prefix: Optional[str] = None) -> float:
        return sum(t[2] for n, t in self._select(names, prefix))

    def _select(self, names, prefix) -> Iterator[Tuple[str, List[float]]]:
        for name, total in self.totals.items():
            if name in names or (prefix is not None and name.startswith(prefix)):
                yield name, total

    def table(self) -> List[dict]:
        """Aggregates as rows, heaviest self time first, with their parents."""
        parents: Dict[str, Dict[str, int]] = {}
        for (parent, name), (calls, _) in sorted(self.edges.items()):
            parents.setdefault(name, {})[parent or "-"] = int(calls)
        rows = [
            {
                "span": n,
                "calls": int(t[0]),
                "total_ms": t[1] * 1e3,
                "self_ms": t[2] * 1e3,
                "parents": parents[n],
            }
            for n, t in self.totals.items()
        ]
        return sorted(rows, key=lambda r: -r["self_ms"])


def _wrap(
    recorder: Recorder,
    fn: Callable,
    name: str,
    after: Optional[Callable[[object, float], None]] = None,
) -> Callable:
    clock = time.perf_counter
    stack = recorder.stack
    close = recorder._close
    is_htm = name.startswith("htm.")

    def wrapper(*args, **kwargs):
        if is_htm:
            recorder.htm_depth += 1
        entry = [name, 0.0]
        stack.append(entry)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = clock() - start
            close(name, entry, duration)
            if is_htm:
                recorder.htm_depth -= 1
        if after is not None:
            after(result, duration)
        return result

    return functools.wraps(fn)(wrapper)


def _wrap_fluid(recorder: Recorder, fn: Callable, method: str) -> Callable:
    truth = _wrap(recorder, fn, f"fluid.truth.{method}")
    whatif = _wrap(recorder, fn, f"fluid.whatif.{method}")

    def wrapper(*args, **kwargs):
        if recorder.in_fluid:
            return fn(*args, **kwargs)
        recorder.in_fluid = True
        try:
            if recorder.htm_depth:
                return whatif(*args, **kwargs)
            return truth(*args, **kwargs)
        finally:
            recorder.in_fluid = False

    return functools.wraps(fn)(wrapper)


def _targets(recorder: Recorder):
    """``(owner, attribute, wrapper factory)`` of every span site."""
    from repro.core.heuristics import HEURISTIC_REGISTRY
    from repro.core.htm import HistoricalTraceManager
    from repro.experiments import campaign
    from repro.platform.agent import Agent
    from repro.platform.middleware import GridMiddleware
    from repro.platform.server import ComputeServer
    from repro.simulation.engine import Environment
    from repro.simulation.fluid import FluidNetwork

    def after_cell(result, duration):
        recorder.cell_durations.append(duration)

    def after_schedule(result, duration):
        recorder.schedule_durations.append(duration)

    def after_predict(result, duration):
        recorder.tracked.append(len(result.completions_without))

    def span(name, after=None):
        return lambda fn: _wrap(recorder, fn, name, after)

    sites = [
        (campaign, "execute_cell", span("campaign.execute_cell", after_cell)),
        (GridMiddleware, "__init__", span("middleware.init")),
        (GridMiddleware, "run", span("middleware.run")),
        (Environment, "step", span("engine.step")),
        (ComputeServer, "submit", span("server.submit")),
        (ComputeServer, "load_average", span("monitor.sample")),
        (ComputeServer, "resident_task_count", span("monitor.sample")),
        (Agent, "receive_load_report", span("monitor.receive")),
        (Agent, "schedule", span("agent.schedule", after_schedule)),
        (Agent, "build_context", span("agent.build_context")),
        (HistoricalTraceManager, "predict", span("htm.predict", after_predict)),
        (HistoricalTraceManager, "commit", span("htm.commit")),
    ]
    for attr in ("notify_completion", "notify_failure", "notify_server_down", "notify_server_up"):
        sites.append((Agent, attr, span("agent.notify")))
    for attr in ("notify_completion", "notify_failure", "clear_server"):
        sites.append((HistoricalTraceManager, attr, span("htm.sync")))
    for factory in sorted(set(HEURISTIC_REGISTRY.values()), key=lambda c: c.__name__):
        if "select" in vars(factory):
            sites.append((factory, "select", span("heuristic.select")))
    for method in FLUID_METHODS:
        sites.append(
            (FluidNetwork, method, lambda fn, m=method: _wrap_fluid(recorder, fn, m))
        )
    return sites


@contextmanager
def install() -> Iterator[Recorder]:
    """Wrap every span site for the duration of the ``with`` block."""
    recorder = Recorder()
    originals = []
    try:
        for owner, attr, factory in _targets(recorder):
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
