"""Virtual-time metric time-series.

Where the trace bus (:mod:`repro.obs.trace`) records *events*, this module
records *state over time*: a :class:`MetricsSampler` is attached to one
middleware run and, at a fixed virtual-time interval, the middleware hands it
one row of gauges — queue depth and utilization per server, in-flight tasks,
cumulative completions and failures, report staleness, sliding-window
throughput and latency, the HTM's tracked backlog.  Rows accumulate in a
columnar :class:`MetricSeries`; the campaign engine tags each run's series
with its cell coordinates (:class:`CellMetrics`) exactly like cell traces.

The two contracts of the trace bus carry over unchanged:

* **zero overhead when off** — hook sites hold an ``Optional[MetricsSampler]``
  and guard with ``if sampler is not None``; a run without a sampler schedules
  no sampling events and executes nothing beyond that check;
* **determinism** — samples are taken at virtual times and read simulation
  state only (the sampling callbacks never mutate it), so a sampled campaign's
  records *and* its metrics file are byte-identical at any ``--jobs`` level,
  and a sampled run's records equal an unsampled run's.

Serialisation is versioned JSONL (one header line, then one compact object
per sample, cells in planned order) and CSV; both use ``json`` float text, so
the byte-identity tests can diff the files directly.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MetricSeries",
    "MetricsSampler",
    "CellMetrics",
    "SeriesView",
    "sample_line",
    "write_metrics_jsonl",
    "read_metrics_jsonl",
    "write_metrics_csv",
    "views_from_rows",
]

#: Schema tag of the JSONL header line (bump on incompatible layout changes).
SCHEMA = "metrics/v1"

#: Default sampling interval (virtual seconds) when none is requested.
DEFAULT_INTERVAL_S = 60.0

#: Sliding window width as a multiple of the sampling interval.
DEFAULT_WINDOW_INTERVALS = 5.0


class MetricSeries:
    """Columnar store of one run's fixed-interval samples.

    The column set is fixed by the first appended row (the middleware builds
    every row from the same platform state, so all rows agree); values are
    stored one list per column, which keeps a million-sample series compact
    and makes per-column reads (sparklines, SVG paths) allocation-free.
    """

    __slots__ = ("times", "_columns")

    def __init__(self, columns: Optional[Sequence[str]] = None):
        self.times: List[float] = []
        self._columns: Dict[str, List[float]] = (
            {name: [] for name in columns} if columns is not None else {}
        )

    @property
    def columns(self) -> Tuple[str, ...]:
        """Column names, in append order (deterministic call-site order)."""
        return tuple(self._columns)

    def append(self, t: float, values: Mapping[str, float]) -> None:
        """Append one sample row at virtual time ``t``."""
        if not self._columns:
            self._columns = {name: [] for name in values}
        elif set(values) != set(self._columns):
            raise ValueError(
                f"sample columns {sorted(values)} do not match the series "
                f"columns {sorted(self._columns)}"
            )
        self.times.append(float(t))
        for name, store in self._columns.items():
            store.append(float(values[name]))

    def column(self, name: str) -> List[float]:
        """Values of one column, in sample order."""
        return self._columns[name]

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return f"<MetricSeries samples={len(self.times)} columns={len(self._columns)}>"

    # Explicit state methods: __slots__ classes have no __dict__ for the
    # default pickle path, and worker processes ship series back whole.
    def __getstate__(self):
        return (self.times, self._columns)

    def __setstate__(self, state) -> None:
        self.times, self._columns = state


class MetricsSampler:
    """Fixed-interval sampler attached to one middleware run.

    The middleware drives it: a self-rescheduling virtual-time process calls
    :meth:`record` with a fully built row every ``interval`` seconds, and the
    completion hook feeds :meth:`note_completion` so the sampler can answer
    sliding-window throughput / latency questions at sample time.  The
    sampler never touches simulation state — it is a pure consumer, which is
    what keeps sampled and unsampled runs number-identical.
    """

    __slots__ = ("interval", "window", "series", "_completions")

    def __init__(self, interval: float = DEFAULT_INTERVAL_S, window: Optional[float] = None):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.interval = float(interval)
        self.window = (
            float(window) if window is not None else DEFAULT_WINDOW_INTERVALS * self.interval
        )
        if self.window <= 0:
            raise ValueError("window must be > 0")
        self.series = MetricSeries()
        #: ``(completion time, latency)`` of recent completions, pruned to
        #: the sliding window as samples are taken.
        self._completions: Deque[Tuple[float, float]] = deque()

    def note_completion(self, t: float, latency: float) -> None:
        """Record one task completion at virtual time ``t``."""
        self._completions.append((float(t), float(latency)))

    def window_stats(self, now: float) -> Tuple[float, float]:
        """``(throughput, mean latency)`` over the window ending at ``now``.

        Throughput is completions per virtual second; the mean latency is
        0.0 when the window holds no completion (the honest "no signal"
        encoding — JSON has no NaN under ``allow_nan=False``).
        """
        floor = now - self.window
        completions = self._completions
        while completions and completions[0][0] <= floor:
            completions.popleft()
        if not completions:
            return 0.0, 0.0
        total = 0.0
        for _, latency in completions:
            total += latency
        return len(completions) / self.window, total / len(completions)

    def record(self, t: float, values: Mapping[str, float]) -> None:
        """Append one sample row (delegates to the series)."""
        self.series.append(t, values)

    def __repr__(self) -> str:
        return (
            f"<MetricsSampler interval={self.interval} window={self.window} "
            f"samples={len(self.series)}>"
        )


@dataclass(frozen=True)
class CellMetrics:
    """One campaign cell's metric series, tagged with its coordinates.

    Like :class:`~repro.obs.trace.CellTrace`, the coordinates — never an
    execution-order artefact — identify the cell, so a campaign metrics file
    is a pure function of the plan.  A cell recovered from a campaign store
    never re-simulates and contributes an *empty* series (zero sample rows),
    keeping the file an honest account of this run.
    """

    heuristic: str
    metatask_index: int
    repetition: int
    times: Tuple[float, ...] = ()
    columns: Tuple[str, ...] = ()
    #: One value tuple per column, aligned with ``columns``.
    values: Tuple[Tuple[float, ...], ...] = ()

    @classmethod
    def from_series(
        cls,
        heuristic: str,
        metatask_index: int,
        repetition: int,
        series: Optional[MetricSeries],
    ) -> "CellMetrics":
        """Freeze one run's series under the cell's coordinates."""
        if series is None or len(series) == 0:
            return cls(heuristic, metatask_index, repetition)
        columns = series.columns
        return cls(
            heuristic=heuristic,
            metatask_index=metatask_index,
            repetition=repetition,
            times=tuple(series.times),
            columns=columns,
            values=tuple(tuple(series.column(name)) for name in columns),
        )

    @property
    def cell_id(self) -> str:
        """Human-readable coordinate tag (``"mct/m0/rep1"``)."""
        return f"{self.heuristic}/m{self.metatask_index}/rep{self.repetition}"

    def column(self, name: str) -> Tuple[float, ...]:
        """Values of one column, in sample order."""
        try:
            index = self.columns.index(name)
        except ValueError:
            # repro: allow[EXC-BARE] mapping-protocol lookup: callers rely on
            # KeyError semantics like MetricSeries.column
            raise KeyError(name) from None
        return self.values[index]

    def view(self) -> "SeriesView":
        """The cell as a renderer-facing :class:`SeriesView`."""
        return SeriesView(
            label=self.cell_id,
            times=self.times,
            columns={name: values for name, values in zip(self.columns, self.values)},
        )


@dataclass(frozen=True)
class SeriesView:
    """Renderer-facing series: a label, times and ordered columns.

    The dashboard (:mod:`repro.obs.dashboard`) renders these, whether they
    came from a live campaign (:meth:`CellMetrics.view`) or from a loaded
    JSONL file (:func:`views_from_rows`) — one shape for both worlds.
    """

    label: str
    times: Tuple[float, ...]
    columns: Mapping[str, Tuple[float, ...]]


def sample_line(cell_id: str, t: float, columns: Sequence[str], row: Sequence[float]) -> str:
    """Serialise one sample to its canonical JSONL line (no newline)."""
    payload: Dict[str, object] = {"cell": cell_id, "t": t}
    for name, value in zip(columns, row):
        payload[name] = value
    return json.dumps(payload, separators=(",", ":"), allow_nan=False)


def write_metrics_jsonl(path: str, cell_metrics: Iterable[CellMetrics]) -> int:
    """Write a campaign's metrics as JSON Lines; returns the sample count.

    The first line is a versioned header; then one line per sample, cells in
    the given (planned) order.  The bytes are a deterministic function of the
    cell series, which is what the ``--jobs`` byte-identity check diffs.
    """
    from ..store.journal import atomic_write_text  # deferred: store -> results -> obs

    cells = list(cell_metrics)
    header = {"schema": SCHEMA, "cells": len(cells)}
    lines = [json.dumps(header, separators=(",", ":"), allow_nan=False)]
    for cell in cells:
        rows_by_time = zip(*cell.values) if cell.values else ()
        for t, row in zip(cell.times, rows_by_time):
            lines.append(sample_line(cell.cell_id, t, cell.columns, row))
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines) - 1


def read_metrics_jsonl(path: str) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Load a metrics file back as ``(header, sample rows)``."""
    from ..errors import ResultsError

    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ResultsError(f"metrics file {path!r} is empty")
    header = json.loads(lines[0])
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != SCHEMA:
        raise ResultsError(
            f"metrics file {path!r} has schema {schema!r}; this build reads {SCHEMA!r}"
        )
    return header, [json.loads(line) for line in lines[1:]]


def views_from_rows(
    rows: Iterable[Mapping[str, object]], prefix: str = ""
) -> List[SeriesView]:
    """Group loaded sample rows back into per-cell :class:`SeriesView` objects.

    Cells keep their file order; ``prefix`` tags every label (the comparison
    renderer prefixes each input file's name so same-named cells from two
    runs stay distinguishable).
    """
    order: List[str] = []
    times: Dict[str, List[float]] = {}
    columns: Dict[str, Dict[str, List[float]]] = {}
    for row in rows:
        cell = str(row.get("cell", "?"))
        if cell not in times:
            order.append(cell)
            times[cell] = []
            columns[cell] = {}
        times[cell].append(float(row["t"]))
        for name, value in row.items():
            if name in ("cell", "t"):
                continue
            columns[cell].setdefault(name, []).append(float(value))
    return [
        SeriesView(
            label=f"{prefix}{cell}",
            times=tuple(times[cell]),
            columns={name: tuple(values) for name, values in columns[cell].items()},
        )
        for cell in order
    ]


def write_metrics_csv(path: str, cell_metrics: Iterable[CellMetrics]) -> int:
    """Write a campaign's metrics as CSV; returns the sample count.

    Header: ``cell,t`` then the union of the cells' columns in first-seen
    order; cells whose series lacks a column leave the field empty.  Float
    text is ``json`` repr, byte-identical to the JSONL export's values.
    """
    cells = list(cell_metrics)
    all_columns: List[str] = []
    for cell in cells:
        for name in cell.columns:
            if name not in all_columns:
                all_columns.append(name)
    from ..store.journal import atomic_write_text  # deferred: store -> results -> obs

    lines = [",".join(["cell", "t"] + all_columns)]
    for cell in cells:
        have = set(cell.columns)
        rows_by_time = zip(*cell.values) if cell.values else ()
        for t, row in zip(cell.times, rows_by_time):
            by_name = dict(zip(cell.columns, row))
            fields = [cell.cell_id, json.dumps(t, allow_nan=False)]
            fields.extend(
                json.dumps(by_name[name], allow_nan=False) if name in have else ""
                for name in all_columns
            )
            lines.append(",".join(fields))
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines) - 1
