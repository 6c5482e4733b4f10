"""Campaign execution engine.

The paper's result tables are means over many independent runs: every
(heuristic × metatask × repetition) combination is one full middleware
simulation.  Those runs share *no* mutable state — each one builds a fresh
:class:`~repro.platform.middleware.GridMiddleware` seeded from its own
coordinates — so a table experiment is embarrassingly parallel.

This module makes that structure explicit:

* :class:`RunCell` — one work unit, identified by its coordinates
  ``(heuristic, metatask_index, repetition)``.  The middleware seed of a cell
  is *derived from the coordinates* (:func:`derive_seed_offset`), never from
  execution order, which is what makes the campaign deterministic: any
  executor, any interleaving, same numbers.
* executors — any ``executor(work_items) -> Iterable[RunResult]`` that
  returns one result per cell *in input order*: :class:`SerialExecutor`
  (in-process) and :class:`MultiprocessingExecutor` (a process pool,
  ``--jobs N`` from the CLI).  Both return iterators, so each result is
  assembled as soon as it completes; a plain list works too.
* :func:`run_campaign` — plans the cells, executes them, builds one
  provenance-stamped :class:`~repro.results.RunRecord` per cell as results
  stream in (calling every attached
  :class:`~repro.results.CampaignObserver` as
  ``on_cell_complete(index, total, record, cached=cached)``), and assembles the
  :class:`~repro.experiments.runner.TableResult` as a pure
  :meth:`~repro.results.ResultSet.pivot` view over the records.  Reference
  (MCT) cells are planned first so "tasks finishing sooner" comparisons pair
  each run with the reference run of the *same* (metatask, repetition) cell.

The documented entry points over this engine live in :mod:`repro.api`.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from dataclasses import dataclass, replace
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..core.heuristics import Heuristic, create_heuristic
from ..errors import ExperimentError, StoreError
from ..metrics.comparison import compare_completion_maps, completion_map
from ..metrics.flow import summarize
from ..obs import CellMetrics, CellTrace, Instrumentation, TraceEvent
from ..platform.middleware import GridMiddleware, MiddlewareConfig, RunResult
from ..platform.spec import PlatformSpec
from ..results import (
    METRIC_FIELD_ORDER,
    METRIC_ROW_TO_SUMMARY_FIELD,
    SOONER_METRIC,
    CampaignObserver,
    ResultSet,
    RunRecord,
    config_fingerprint,
)
from ..stats.sequential import StoppingDecision, StoppingRule
from ..store.cache import CampaignStore, CellEntry, open_store, workload_fingerprint
from ..store.resume import partition_cells
from ..workload.metatask import Metatask
from ..workload.problems import PAPER_CATALOGUE, ProblemCatalogue
from .config import ExperimentConfig

__all__ = [
    "RunCell",
    "CellWork",
    "derive_seed_offset",
    "plan_cells",
    "execute_cell",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "create_executor",
    "run_campaign",
    "METRIC_ROW_TO_SUMMARY_FIELD",
]

#: Summary fields copied onto every record (everything but the pairwise
#: ``sooner`` count, which needs the reference run).
_RECORD_SUMMARY_FIELDS = tuple(f for f in METRIC_FIELD_ORDER if f != SOONER_METRIC)


def derive_seed_offset(metatask_index: int, repetition: int) -> int:
    """Seed offset of one cell, derived from its coordinates only.

    This is the scheme the serial runner has always used: repetitions of the
    same metatask get consecutive seeds, distinct metatasks are 1000 apart.
    Because the offset depends only on ``(metatask_index, repetition)`` — not
    on the heuristic and not on when the cell happens to execute — every
    heuristic replays the same platform noise for a given cell, and parallel
    execution cannot change any number.
    """
    return metatask_index * 1000 + repetition


@dataclass(frozen=True)
class RunCell:
    """Coordinates of one independent middleware run of a campaign."""

    heuristic: str
    metatask_index: int
    repetition: int
    seed_offset: int

    @property
    def key(self) -> Tuple[int, int]:
        """The (metatask, repetition) pair used to pair runs across heuristics."""
        return (self.metatask_index, self.repetition)


@dataclass(frozen=True)
class CellWork:
    """A :class:`RunCell` bundled with everything needed to execute it.

    The bundle is picklable (platform, metatask and configuration are frozen
    value objects), which is what lets :class:`MultiprocessingExecutor` ship
    it to worker processes.  ``heuristic_factory`` is ``None`` for registry
    heuristics (the worker builds a fresh instance by name); an explicit
    instance is reused in-process by the serial executor and *copied* (via
    pickle) by the multiprocessing one — identical results for the stateless
    heuristics of the paper.
    """

    cell: RunCell
    platform: PlatformSpec
    metatask: Metatask
    middleware_config: MiddlewareConfig
    catalogue: ProblemCatalogue
    heuristic_factory: Optional[Heuristic] = None
    #: What the cell's middleware observes.  Traces and metric samples
    #: derive from virtual time and the cell's coordinate seed only, so
    #: instrumented campaigns keep their record bytes and stay
    #: byte-identical at any ``--jobs`` level.
    instrumentation: Instrumentation = Instrumentation()


def plan_cells(
    config: ExperimentConfig,
    metatask_count: int,
    rep_range: Optional[range] = None,
) -> List[RunCell]:
    """Decompose an experiment into its cells, reference heuristic first.

    The order is the canonical assembly order (and the execution order of the
    serial executor): heuristics with the reference moved to the front, then
    metatasks, then repetitions.

    ``rep_range`` restricts the plan to a slice of repetitions (default: all
    of ``config.scale.repetitions``) — the sequential stopping mode plans one
    round of *new* repetitions at a time, and because seeds derive from cell
    coordinates, ``plan(range(0, 4))`` is cell-for-cell identical to
    ``plan(range(0, 2)) + plan(range(2, 4))`` reassembled per heuristic.
    """
    if rep_range is None:
        rep_range = range(config.scale.repetitions)
    heuristics: List[str] = list(config.heuristics)
    if config.reference in heuristics:
        heuristics.remove(config.reference)
        heuristics.insert(0, config.reference)
    return [
        RunCell(
            heuristic=name,
            metatask_index=metatask_index,
            repetition=repetition,
            seed_offset=derive_seed_offset(metatask_index, repetition),
        )
        for name in heuristics
        for metatask_index in range(metatask_count)
        for repetition in rep_range
    ]


def execute_cell(work: CellWork) -> RunResult:
    """Execute one cell: a fresh middleware instance, one full run."""
    heuristic: Union[str, Heuristic]
    if work.heuristic_factory is not None:
        heuristic = work.heuristic_factory
    else:
        heuristic = create_heuristic(work.cell.heuristic)
    middleware = GridMiddleware(
        platform=work.platform,
        heuristic=heuristic,
        catalogue=work.catalogue,
        config=work.middleware_config,
        tracer=work.instrumentation.tracer(),
        sampler=work.instrumentation.sampler(),
    )
    return middleware.run(work.metatask)


class SerialExecutor:
    """Execute cells one after the other in the current process."""

    jobs = 1

    def __call__(self, work_items: Sequence[CellWork]) -> Iterator[RunResult]:
        return map(execute_cell, work_items)

    def __repr__(self) -> str:
        return "<SerialExecutor>"


class MultiprocessingExecutor:
    """Execute cells on a process pool of ``jobs`` workers.

    ``Pool.imap`` preserves input order, so results are yielded in planned
    cell order regardless of which worker finished first.

    The pool is built from an *explicit* start-method context: pass
    ``start_method`` to pin one, otherwise the platform's default method is
    resolved once and used explicitly (the platform defaults — spawn on
    macOS/Windows, fork or forkserver on Linux depending on the Python
    version — exist for fork-safety reasons, so they are respected rather
    than overridden).  When a pool cannot be created at all — most notably
    when the executor runs inside a *daemonic* worker of an enclosing
    campaign, which is forbidden from spawning children — it degrades to
    in-process serial execution.  Cells are seeded from their coordinates, so
    every start method and the serial fallback are byte-identical, only their
    speed differs.
    """

    def __init__(self, jobs: int, chunksize: int = 1, start_method: Optional[str] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if start_method is not None and start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} is not available on this platform"
            )
        self.jobs = jobs
        self.chunksize = chunksize
        self.start_method = start_method

    def _context(self):
        """The multiprocessing context the pool is built from."""
        method = self.start_method
        if method is None:
            method = multiprocessing.get_start_method(allow_none=False)
        return multiprocessing.get_context(method)

    def __call__(self, work_items: Sequence[CellWork]) -> Iterator[RunResult]:
        work_items = list(work_items)
        if not work_items:
            return
        # No point forking more workers than there are cells.
        processes = min(self.jobs, len(work_items))
        if processes == 1 or multiprocessing.current_process().daemon:
            # Daemonic processes may not have children: a nested campaign
            # (e.g. an experiment running inside a pool worker) runs serially.
            yield from map(execute_cell, work_items)
            return
        try:
            pool = self._context().Pool(processes=processes)
        except (AssertionError, OSError, ValueError):
            # Pool *creation* failed (daemonic contexts that slipped past the
            # check above raise AssertionError; exotic platforms raise
            # OSError/ValueError).  Fall back to serial execution.  Errors
            # raised by the cells themselves propagate from the pool map below
            # — they must not silently trigger a serial re-run of the campaign.
            yield from map(execute_cell, work_items)
            return
        with pool:
            # ``imap`` yields results in input order as workers finish, which
            # is what lets observers stream while the pool is still running.
            yield from pool.imap(execute_cell, work_items, chunksize=self.chunksize)

    def __repr__(self) -> str:
        return f"<MultiprocessingExecutor jobs={self.jobs}>"


#: Signature shared by the executors: ordered cells in, results out in the
#: same order (a list, or an iterator that streams them as they complete).
CellExecutor = Callable[[Sequence[CellWork]], Iterable[RunResult]]


def create_executor(jobs: Optional[int]) -> CellExecutor:
    """Executor for a requested parallelism level (``None``/``1`` → serial)."""
    if jobs is None or jobs == 1:
        return SerialExecutor()
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    return MultiprocessingExecutor(jobs)


class _CampaignAssembler:
    """Turns executed runs *and* cached entries into records and observers.

    Cells must be fed in planned cell order (reference heuristic first) so
    every "tasks finishing sooner" comparison finds its reference
    completions.  A cell comes in through one of two doors —
    :meth:`process` (a freshly executed run, committed to the store when one
    is attached) or :meth:`process_cached` (an entry recovered from the
    store's journal, emitted verbatim) — and the record stream is
    byte-identical whichever door each cell came through.
    """

    def __init__(
        self,
        experiment_id: str,
        cells: Sequence[RunCell],
        work_items: Sequence[CellWork],
        config: ExperimentConfig,
        observers: Sequence[CampaignObserver],
        store: Optional[CampaignStore] = None,
        cell_keys: Optional[Sequence] = None,
        instrumentation: Instrumentation = Instrumentation(),
    ):
        from .runner import HeuristicOutcome  # circular-import guard

        self._outcome_factory = HeuristicOutcome
        self.experiment_id = experiment_id
        self.cells = cells
        self.work_items = work_items
        self.config = config
        self.observers = list(observers)
        self.store = store
        self.instrumentation = instrumentation
        #: One :class:`repro.obs.CellTrace` per cell, planned order (filled
        #: as cells are processed; stays all-``None`` when tracing is off).
        self.traces: List[Optional[CellTrace]] = [None] * len(cells)
        #: One :class:`repro.obs.CellMetrics` per cell, planned order (stays
        #: all-``None`` when sampling is off).
        self.metrics: List[Optional[CellMetrics]] = [None] * len(cells)
        #: Each executed cell's hot-path counters, planned order (``None``
        #: for cells recovered from the store, which never re-simulate).
        self.counters: List[Optional[Dict[str, int]]] = [None] * len(cells)
        self.cell_keys = cell_keys
        self.config_hash = config_fingerprint(config)
        self.result_set = ResultSet()
        self.outcomes: Dict[str, object] = {}
        #: ``task_id → completion date`` of the reference run of each
        #: (metatask, repetition) key — from a live run or from the store.
        self.reference_completions: Dict[Tuple[int, int], Dict[str, float]] = {}
        self.recovered = 0
        self.executed = 0

    def process(self, index: int, run: RunResult) -> None:
        """Assemble one freshly executed cell."""
        cell = self.cells[index]
        outcome = self.outcomes.setdefault(
            cell.heuristic, self._outcome_factory(cell.heuristic)
        )
        outcome.runs.append(run)
        summary = summarize(run.tasks, cell.heuristic)
        outcome.summaries.append(summary)
        metrics: Dict[str, Optional[float]] = {
            name: float(getattr(summary, name)) for name in _RECORD_SUMMARY_FIELDS
        }
        completions: Optional[Dict[str, float]] = None
        if cell.heuristic == self.config.reference:
            completions = completion_map(run.tasks)
            self.reference_completions[cell.key] = completions
        elif cell.key in self.reference_completions:
            comparison = compare_completion_maps(
                completion_map(run.tasks),
                self.reference_completions[cell.key],
                cell.heuristic,
                self.config.reference,
            )
            outcome.comparisons.append(comparison)
            metrics[SOONER_METRIC] = float(comparison.sooner)
        record = RunRecord(
            experiment_id=self.experiment_id,
            heuristic=cell.heuristic,
            metatask_index=cell.metatask_index,
            repetition=cell.repetition,
            seed=self.work_items[index].middleware_config.seed,
            config_hash=self.config_hash,
            truncated=run.truncated,
            metrics=metrics,
        )
        if self.store is not None:
            # WAL discipline: the cell only counts as done once journaled.
            self.store.put(
                CellEntry(key=self.cell_keys[index], record=record, completions=completions)
            )
        if self.instrumentation.trace:
            events = list(run.trace_events)
            if self.store is not None:
                # Store attached and the cell still executed: a cache miss.
                events.insert(0, TraceEvent(0.0, "store.miss"))
            self.traces[index] = CellTrace(
                heuristic=cell.heuristic,
                metatask_index=cell.metatask_index,
                repetition=cell.repetition,
                events=tuple(events),
                dropped=run.trace_dropped,
            )
        if self.instrumentation.metrics:
            self.metrics[index] = CellMetrics.from_series(
                cell.heuristic,
                cell.metatask_index,
                cell.repetition,
                run.metric_series,
            )
        self.counters[index] = run.counters
        self.executed += 1
        self._emit(index, record, cached=False)

    def process_cached(self, index: int, entry: CellEntry) -> None:
        """Assemble one cell recovered from the store's journal."""
        cell = self.cells[index]
        if cell.heuristic == self.config.reference:
            if entry.completions is None:
                raise StoreError(
                    f"cached reference cell {cell.heuristic}/m{cell.metatask_index}"
                    f"/rep{cell.repetition} carries no completion map; the store "
                    "entry is damaged — prune it and re-run"
                )
            self.reference_completions[cell.key] = dict(entry.completions)
        if self.instrumentation.trace:
            # A recovered cell never re-simulates, so its trace is the single
            # marker event — the trace stays an honest account of this run.
            self.traces[index] = CellTrace(
                heuristic=cell.heuristic,
                metatask_index=cell.metatask_index,
                repetition=cell.repetition,
                events=(TraceEvent(0.0, "store.hit"),),
            )
        if self.instrumentation.metrics:
            # A recovered cell never re-simulates: its series is honestly
            # empty rather than a replay of bytes the store never kept.
            self.metrics[index] = CellMetrics.from_series(
                cell.heuristic, cell.metatask_index, cell.repetition, None
            )
        self.recovered += 1
        self._emit(index, entry.record, cached=True)

    def _emit(self, index: int, record: RunRecord, cached: bool) -> None:
        self.result_set.append(record)
        for observer in self.observers:
            observer.on_cell_complete(index, len(self.cells), record, cached=cached)


def _resolve_repetitions(
    config: ExperimentConfig,
    reps: Optional[Union[int, str]],
    ci_target: Optional[float],
) -> Tuple[ExperimentConfig, Optional[StoppingRule]]:
    """Fold the ``reps``/``ci_target`` arguments into the configuration.

    Returns the (possibly updated) configuration and the
    :class:`~repro.stats.StoppingRule` driving sequential mode, or ``None``
    for a fixed-repetition campaign.  ``ci_target`` is folded into the
    config *before* any record is stamped, so the fingerprint of a
    sequential campaign always covers its stopping knobs.
    """
    if ci_target is not None:
        config = replace(config, ci_target=ci_target)
    if reps == "auto":
        if config.ci_target is None:
            raise ExperimentError(
                'reps="auto" requires a CI target (the ci_target argument or '
                "ExperimentConfig.ci_target)"
            )
        sequential = True
    elif reps is None:
        # A configuration carrying a CI target means "run until converged".
        sequential = config.ci_target is not None
    elif isinstance(reps, int) and not isinstance(reps, bool):
        if reps < 1:
            raise ExperimentError(f"reps must be >= 1, got {reps}")
        if reps != config.scale.repetitions:
            config = replace(config, scale=replace(config.scale, repetitions=reps))
        sequential = False
    else:
        raise ExperimentError(f"reps must be an int or 'auto', got {reps!r}")
    if not sequential:
        return config, None
    rule = StoppingRule(
        ci_target=config.ci_target,
        metric=config.ci_metric,
        confidence=config.ci_confidence,
        min_reps=config.ci_min_reps,
        max_reps=config.ci_max_reps,
    )
    return config, rule


def _metric_groups(
    assemblers: Sequence[_CampaignAssembler], metric: str
) -> Dict[Tuple[str, int], List[float]]:
    """Stopping-rule groups over every record assembled so far.

    Pure function of the record data — independent of ``jobs``, executor and
    store state — which is what makes the stop decision (and therefore the
    repetition count) byte-identical across serial and parallel runs.
    """
    groups: Dict[Tuple[str, int], List[float]] = {}
    for assembler in assemblers:
        for record in assembler.result_set:
            value = record.metrics.get(metric)
            if value is None:
                continue
            groups.setdefault((record.heuristic, record.metatask_index), []).append(
                float(value)
            )
    return groups


def _run_round(
    experiment_id: str,
    platform: PlatformSpec,
    metatasks: Sequence[Metatask],
    config: ExperimentConfig,
    catalogue: ProblemCatalogue,
    heuristic_factories: Optional[Mapping[str, Heuristic]],
    executor: CellExecutor,
    observers: Sequence[CampaignObserver],
    store: Optional[CampaignStore],
    rep_range: Optional[range] = None,
    instrumentation: Instrumentation = Instrumentation(),
) -> Tuple[_CampaignAssembler, List[RunCell]]:
    """Plan, execute and assemble one round of repetitions.

    A fixed-repetition campaign is exactly one round covering every
    repetition; sequential mode calls this once per stopping-rule round with
    the new repetition slice.  Each round is self-contained: its reference
    cells come first in its own plan, so "tasks finishing sooner"
    comparisons always pair within the round that ran them.
    """
    cells = plan_cells(config, len(metatasks), rep_range=rep_range)
    work_items = [
        CellWork(
            cell=cell,
            platform=platform,
            metatask=metatasks[cell.metatask_index],
            middleware_config=config.middleware_for(cell.heuristic, cell.seed_offset),
            catalogue=catalogue,
            heuristic_factory=(heuristic_factories or {}).get(cell.heuristic),
            instrumentation=instrumentation,
        )
        for cell in cells
    ]

    if store is None:
        hits: Dict[int, CellEntry] = {}
        cell_keys = None
        miss_items = work_items
    else:
        # Diff the plan against the journal: hits are recovered, only the
        # missing cells reach the executor.  The workload fingerprint keeps
        # custom platform/metatask arguments — which the config hash cannot
        # see — from aliasing another campaign's cells.
        config_hash = config_fingerprint(config)
        workload_hash = workload_fingerprint(platform, metatasks)
        partition = partition_cells(
            store, experiment_id, config_hash, cells, work_items, workload_hash
        )
        hits = partition.hits
        cell_keys = partition.keys
        miss_items = [work_items[i] for i in partition.misses]
        if not hits:
            # A resume with the wrong --scale/--seed looks exactly like a
            # cold run: same experiment id, different config hash, zero
            # hits.  Warn *before* hours of re-simulation, not after.  Only
            # *mismatching* keys count as stale: entries for the same
            # configuration but other repetition coordinates are simply
            # earlier rounds of a sequential campaign, not a problem.
            stale = sum(
                1
                for e in store.entries()
                if e.key.experiment_id == experiment_id
                and (
                    e.key.config_hash != config_hash
                    or e.key.workload_hash != workload_hash
                )
            )
            if stale:
                warnings.warn(
                    f"store at {store.root!r} holds {stale} cell(s) for "
                    f"{experiment_id!r} under a different configuration or "
                    f"workload (key mismatch — check --scale/--seed); this "
                    f"campaign is starting cold",
                    stacklevel=2,
                )

    assembler = _CampaignAssembler(
        experiment_id, cells, work_items, config, observers,
        store=store, cell_keys=cell_keys, instrumentation=instrumentation,
    )
    for observer in observers:
        observer.on_campaign_start(experiment_id, len(cells))
    # Merge the two ordered streams — journal hits and the executor's
    # results for the misses — back into planned cell order.
    results = iter(executor(miss_items) if miss_items else ())
    for index in range(len(cells)):
        entry = hits.get(index)
        if entry is not None:
            assembler.process_cached(index, entry)
            continue
        run = next(results, None)
        if run is None:
            raise ExperimentError(
                f"executor returned {assembler.executed} results for "
                f"{len(miss_items)} cells"
            )
        assembler.process(index, run)
    if next(results, None) is not None:
        raise ExperimentError(
            f"executor returned more than {len(miss_items)} results for "
            f"{len(miss_items)} cells"
        )
    return assembler, cells


def run_campaign(
    experiment_id: str,
    title: str,
    platform: PlatformSpec,
    metatasks: Sequence[Metatask],
    config: ExperimentConfig,
    catalogue: ProblemCatalogue = PAPER_CATALOGUE,
    heuristic_factories: Optional[Mapping[str, Heuristic]] = None,
    notes: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    executor: Optional[CellExecutor] = None,
    observers: Sequence[CampaignObserver] = (),
    store: Optional[Union[CampaignStore, str]] = None,
    reps: Optional[Union[int, str]] = None,
    ci_target: Optional[float] = None,
    instrumentation: Optional[Instrumentation] = None,
):
    """Run a full table campaign and assemble its :class:`TableResult`.

    ``jobs`` defaults to ``config.jobs``; an explicit ``executor`` (anything
    mapping an ordered sequence of :class:`CellWork` to an iterable of
    :class:`RunResult` in the same order — a list, or an iterator that
    yields each result as it completes so observers stream) overrides
    both — the pluggable backend hook.  An executor returning too few or
    too many results raises :class:`~repro.errors.ExperimentError`.

    ``reps`` controls the repetition count: an ``int`` overrides
    ``config.scale.repetitions`` (fixed mode), and the string ``"auto"``
    switches to **sequential stopping** — the campaign runs rounds of
    repetitions until the relative ``config.ci_confidence`` Student-t CI
    half-width of ``config.ci_metric`` is at most ``ci_target`` for every
    (heuristic, metatask) group, or ``config.ci_max_reps`` is exhausted
    (surfaced as a table note either way).  ``ci_target`` here overrides
    ``config.ci_target``; a config carrying a CI target runs sequentially
    even without ``reps="auto"``.  The stop decision is a pure function of
    the assembled records and seeds derive from cell coordinates, so a
    sequential campaign is byte-identical at any ``jobs`` level and across
    store-warm resumes — exactly like fixed mode.

    ``instrumentation`` (a :class:`repro.obs.Instrumentation`) says what
    every executed cell observes.  With ``trace`` on, each cell's middleware
    carries a :class:`repro.obs.Tracer` and the per-cell traces come back on
    ``table.traces`` (planned order, one :class:`repro.obs.CellTrace` per
    cell; ``trace_limit`` bounds each cell's event ring).  With a
    ``metrics_interval``, each cell carries a :class:`repro.obs.MetricsSampler`
    — a fixed-interval virtual-time sampler of queue depths, utilization,
    in-flight tasks, completions/failures, report staleness and windowed
    throughput/latency (``metrics_window`` sets the window) — and the
    per-cell series come back on ``table.metrics`` (same shape and order).
    Every executed cell's hot-path counters come back on ``table.counters``
    (planned order; ``None`` for cells recovered from a store) — the input
    of :func:`repro.obs.counter_rollup`.
    Trace events and samples carry *virtual* time only and derive from cell
    coordinates, so an instrumented campaign — records, trace and series —
    is byte-identical at any ``jobs`` level, and its records equal an
    uninstrumented run's.  With a store attached, recovered cells never
    re-simulate: their trace is a single ``store.hit`` marker and their
    series is empty; executed cells' traces are prefixed ``store.miss``.
    Instrumentation is execution-only: it is not a config field and leaves
    fingerprints untouched.

    ``store`` (or ``config.store``) attaches a
    :class:`~repro.store.CampaignStore`: the plan is diffed against the
    store's journal first, journaled cells are recovered without simulating
    (the executor only ever sees the missing ones), and every freshly
    executed cell is durably committed before it counts as done.  A fully
    warm store therefore replays the whole campaign with *zero* simulations,
    and a campaign killed mid-flight resumes from its journal — in both
    cases the records, the table and any saved file are byte-identical to a
    cold, uninterrupted run.  ``TableResult.cache_info`` reports the
    recovered/executed split.

    As cells complete, one :class:`~repro.results.RunRecord` per cell is
    assembled in planned order and streamed to ``observers`` (plus any
    observers attached to ``config.observers``) through
    ``on_cell_complete(index, total, record, cached=cached)``, where
    ``cached`` says whether the cell came from the store; in sequential mode
    ``on_campaign_start`` fires once per round (cell indices and totals are
    per-round) while ``on_campaign_end`` fires once, with the merged record
    set.  The returned table carries the full record set on
    ``TableResult.result_set`` — ``table.columns`` is exactly
    ``table.result_set.pivot().columns``, i.e. the table is a pure view over
    the records.
    """
    metatasks = list(metatasks)
    if instrumentation is None:
        instrumentation = Instrumentation()
    config, rule = _resolve_repetitions(config, reps, ci_target)
    if executor is None:
        executor = create_executor(config.jobs if jobs is None else jobs)
    store = open_store(store if store is not None else getattr(config, "store", None))
    all_observers = list(observers) + list(getattr(config, "observers", ()) or ())

    rounds: List[Tuple[_CampaignAssembler, List[RunCell]]] = []
    decision: Optional[StoppingDecision] = None
    if rule is None:
        rounds.append(
            _run_round(
                experiment_id, platform, metatasks, config, catalogue,
                heuristic_factories, executor, all_observers, store,
                instrumentation=instrumentation,
            )
        )
        total_reps = config.scale.repetitions
    else:
        total_reps = rule.initial_reps(config.scale.repetitions)
        start = 0
        while True:
            rounds.append(
                _run_round(
                    experiment_id, platform, metatasks, config, catalogue,
                    heuristic_factories, executor, all_observers, store,
                    rep_range=range(start, total_reps),
                    instrumentation=instrumentation,
                )
            )
            groups = _metric_groups([a for a, _ in rounds], rule.metric)
            if not groups:
                raise ExperimentError(
                    f"sequential stopping metric {rule.metric!r} appears on no "
                    "record — check ExperimentConfig.ci_metric against the "
                    "recorded metric names"
                )
            decision = rule.assess(groups)
            if decision.satisfied or total_reps >= rule.max_reps:
                break
            start = total_reps
            total_reps = rule.next_reps(total_reps)

    # Merge the rounds, in order, into one record stream.  Record order is a
    # pure function of the plan (rounds, then planned cell order within each
    # round), so it is identical for any executor.
    result_set = ResultSet()
    outcomes: Dict[str, object] = {}
    recovered = 0
    executed = 0
    truncated_cells: List[str] = []
    for assembler, cells in rounds:
        for record in assembler.result_set:
            result_set.append(record)
        for name, outcome in assembler.outcomes.items():
            merged = outcomes.get(name)
            if merged is None:
                outcomes[name] = outcome
            else:
                merged.runs.extend(outcome.runs)
                merged.summaries.extend(outcome.summaries)
                merged.comparisons.extend(outcome.comparisons)
        recovered += assembler.recovered
        executed += assembler.executed
        # Truncated runs (the middleware safety horizon fired) must not be
        # silently averaged with complete ones: surface them in the table
        # notes.  Records are assembled in planned cell order, so zipping
        # them against the plan is exact — and works for recovered cells,
        # which have no RunResult, because the record carries the flag.
        truncated_cells.extend(
            f"{cell.heuristic}/metatask{cell.metatask_index}/rep{cell.repetition}"
            for cell, record in zip(cells, assembler.result_set)
            if record.truncated
        )

    notes = list(notes or [])
    if truncated_cells:
        notes.append(
            f"WARNING: {len(truncated_cells)} run(s) hit max_horizon_s and were "
            f"truncated (in-flight tasks failed as 'horizon'): "
            + ", ".join(truncated_cells)
        )
    if rule is not None and decision is not None:
        worst_rel = decision.worst.relative_half_width
        worst_text = "inf" if not math.isfinite(worst_rel) else f"{worst_rel:.4f}"
        if decision.satisfied:
            notes.append(
                f"sequential stopping: {rule.metric} relative CI half-width <= "
                f"{rule.ci_target:g} at {int(rule.confidence * 100)}% confidence "
                f"after {total_reps} repetition(s) in {len(rounds)} round(s) "
                f"(worst group {worst_text})"
            )
        else:
            notes.append(
                f"WARNING: sequential stopping exhausted ci_max_reps="
                f"{rule.max_reps} without reaching CI target {rule.ci_target:g} "
                f"on {rule.metric} (worst group relative half-width "
                f"{worst_text}); means below are unconverged"
            )

    config_hash = rounds[0][0].config_hash
    result_set.meta = {
        "experiment_id": experiment_id,
        "title": title,
        "notes": notes,
        "config_hash": config_hash,
        "scale": config.scale.name,
        "seed": config.seed,
        "reference": config.reference,
    }
    if rule is not None and decision is not None:
        result_set.meta["sequential"] = {
            "ci_target": rule.ci_target,
            "metric": rule.metric,
            "confidence": rule.confidence,
            "repetitions": total_reps,
            "rounds": len(rounds),
            "converged": decision.satisfied,
            "worst_relative_half_width": (
                None if not math.isfinite(worst_rel) else round(worst_rel, 6)
            ),
            # The ``stats.*`` counter family: how much work the stopping
            # engine spent and where it stood when it stopped.  Merged into
            # the perf report's counter rollup (repro.obs.counter_rollup)
            # and echoed on the ProgressObserver end line.
            "counters": {
                "stats.rounds": len(rounds),
                "stats.cells": sum(len(cells) for _, cells in rounds),
                "stats.cells_last_round": len(rounds[-1][1]),
                "stats.groups": len(decision.groups),
                "stats.groups_unresolved": sum(
                    1 for group in decision.groups if not group.satisfied
                ),
            },
        }
    if store is not None:
        store.flush_stats()
    for observer in all_observers:
        observer.on_campaign_end(result_set)

    # The table is a pure pivot view over the records; the rich per-run
    # objects (tasks, server stats) ride along in ``outcomes`` for consumers
    # that need more than the aggregated numbers.  ``outcomes`` only covers
    # *executed* cells — recovered cells contribute records, not live runs.
    table = result_set.pivot()
    table.outcomes = outcomes
    table.cache_info = {"recovered": recovered, "executed": executed}
    # Per-cell virtual-time traces and metric series, rounds concatenated in
    # planned order (each empty unless instrumented) — like ``outcomes``, a
    # rich ride-along that never influences the pivot itself.
    table.traces = (
        [cell_trace for assembler, _ in rounds for cell_trace in assembler.traces]
        if instrumentation.trace
        else []
    )
    table.metrics = (
        [cell_metrics for assembler, _ in rounds for cell_metrics in assembler.metrics]
        if instrumentation.metrics
        else []
    )
    table.counters = [
        cell_counters for assembler, _ in rounds for cell_counters in assembler.counters
    ]
    return table
