"""The stable programmatic facade of the reproduction.

A handful of entry points cover the whole results lifecycle — everything
else in the library is implementation detail that may move between minor
versions:

* :func:`run` — run any registered experiment (``table5`` ... ``table8``,
  the validation, the ablations, scenario sweeps) at any scale / seed /
  parallelism and get its result object back; table experiments carry their
  full provenance-stamped record set on ``result.result_set``.  Pass
  ``store="some/dir"`` to memoise every cell in a campaign store: warm
  re-runs skip simulation entirely and stay byte-identical.
* :func:`sweep` — run a heuristic × scenario grid and get the per-scenario
  tables, the cross-scenario ranking and one combined record set.
* :func:`resume` — finish an interrupted campaign from its store's journal,
  executing only the cells the crash lost.
* :func:`load_results` / :func:`save_results` — versioned JSONL / CSV
  persistence of record sets; saved files are byte-identical for identical
  records whatever the execution order or ``jobs`` level.
* :func:`compare` — structural diff of two result sets (or result files):
  the programmatic form of ``repro results diff``.
* :func:`check` — the static determinism & contract linter
  (:mod:`repro.analysis`): the programmatic form of ``repro check``.
* :func:`profile` — the observability subsystem (:mod:`repro.obs`) in one
  instrumented run: phase timers, hot-path counters and optional
  ``cProfile`` for one scenario campaign, plus (on request) its
  virtual-time event trace and metric series, exported as JSONL / CSV /
  Chrome ``trace_event``.  The programmatic form of ``repro profile``;
  render metric files with ``repro metrics show|plot``.

Quickstart::

    from repro import api

    table = api.run("table5", scale="smoke", jobs=4)
    print(table.render())
    api.save_results(table, "table5.jsonl")

    loaded = api.load_results("table5.jsonl")
    print(loaded.pivot().render())          # identical table, from records
    assert api.compare(table.result_set, loaded).identical
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Optional, Sequence, Union

from .errors import ExperimentError, ResultsError
from .experiments.config import SCALES, ExperimentConfig, ExperimentScale
from .experiments.registry import run_experiment
from .results import CampaignObserver, ResultDiff, ResultSet, diff_result_sets
from .store import CampaignStore, open_store, resume_experiment

__all__ = [
    "run",
    "sweep",
    "resume",
    "validate",
    "check",
    "profile",
    "load_results",
    "save_results",
    "compare",
]

#: Things accepted wherever a result set is expected: the set itself, a
#: result object carrying one, or a path to a saved file.
ResultsLike = Union[ResultSet, str, "os.PathLike[str]", Any]

#: A filesystem path, as a string or any ``os.PathLike``.
PathLike = Union[str, "os.PathLike[str]"]

#: Things accepted wherever a campaign store is expected: an open store or
#: the path of its directory (created on first use).
StoreLike = Union[CampaignStore, str, "os.PathLike[str]"]


def _resolve_config(
    config: Optional[ExperimentConfig],
    scale: Optional[Union[str, ExperimentScale]],
    seed: Optional[int],
    jobs: Optional[int],
    observers: Sequence[CampaignObserver],
    store: Optional[StoreLike] = None,
    ci_target: Optional[float] = None,
) -> ExperimentConfig:
    """Fold the keyword overrides into one :class:`ExperimentConfig`."""
    resolved = config if config is not None else ExperimentConfig()
    if scale is not None:
        if isinstance(scale, str):
            try:
                scale = SCALES[scale]
            except KeyError:
                raise ExperimentError(
                    f"unknown scale {scale!r}; available: {sorted(SCALES)}"
                ) from None
        resolved = resolved.with_scale(scale)
    if seed is not None:
        resolved = resolved.with_seed(seed)
    if jobs is not None:
        resolved = resolved.with_jobs(jobs)
    if observers:
        resolved = replace(
            resolved, observers=tuple(resolved.observers) + tuple(observers)
        )
    if store is not None:
        resolved = resolved.with_store(open_store(store))
    if ci_target is not None:
        resolved = resolved.with_ci_target(ci_target)
    return resolved


def run(
    experiment: str,
    *,
    config: Optional[ExperimentConfig] = None,
    scale: Optional[Union[str, ExperimentScale]] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    observers: Sequence[CampaignObserver] = (),
    store: Optional[StoreLike] = None,
    ci_target: Optional[float] = None,
):
    """Run one registered experiment and return its result object.

    ``experiment`` is a registry id (``repro --list`` /
    :func:`repro.experiments.experiment_ids`).  ``scale`` (a name from
    ``"full"`` / ``"bench"`` / ``"smoke"`` or an
    :class:`~repro.experiments.ExperimentScale`), ``seed`` and ``jobs``
    override the corresponding fields of ``config``; ``observers`` stream
    every cell completion.  ``store`` (a :class:`~repro.store.CampaignStore`
    or a directory path, created on first use) attaches the campaign store:
    cells already journaled are recovered instead of simulated, fresh cells
    are durably committed as they complete, and the result — table, records,
    saved files — is byte-identical with a cold, warm or interrupted-then-
    resumed store.  Table experiments return a
    :class:`~repro.experiments.runner.TableResult` whose ``result_set``
    holds one :class:`~repro.results.RunRecord` per run — the table itself
    is a :meth:`~repro.results.ResultSet.pivot` view over those records.

    ``ci_target`` switches table campaigns to **sequential stopping**:
    repetition rounds are added until the relative 95% CI half-width of
    every (heuristic, metatask) group's ``config.ci_metric`` is at most
    this value (knobs: ``ExperimentConfig.ci_*``).  Cell means then render
    as ``mean ± half-width`` and the convergence outcome lands in the table
    notes.  It is a number-determining knob (it decides how many cells run)
    and participates in the configuration fingerprint.

    Determinism contract: the records (hence the table, hence a saved
    results file) are identical for every ``jobs`` value and every store
    temperature.
    """
    resolved = _resolve_config(config, scale, seed, jobs, observers, store, ci_target)
    return run_experiment(experiment, resolved)


def resume(
    experiment: str,
    store: StoreLike,
    *,
    config: Optional[ExperimentConfig] = None,
    scale: Optional[Union[str, ExperimentScale]] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    observers: Sequence[CampaignObserver] = (),
):
    """Resume an interrupted campaign from its store's journal.

    Diffs the experiment's planned cells against what ``store`` already
    journaled, executes only the missing ones, and returns a
    :class:`~repro.store.ResumeReport` whose ``result`` is byte-identical to
    an uninterrupted run.  Running against an already-complete store is a
    cheap verification: zero cells execute.  The shell form is
    ``repro campaign resume <experiment> --store DIR``.
    """
    resolved = _resolve_config(config, scale, seed, jobs, observers)
    return resume_experiment(experiment, open_store(store), config=resolved)


def sweep(
    scenarios: Optional[Sequence[str]] = None,
    *,
    config: Optional[ExperimentConfig] = None,
    scale: Optional[Union[str, ExperimentScale]] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    metric: str = "sumflow",
    observers: Sequence[CampaignObserver] = (),
    store: Optional[StoreLike] = None,
    ci_target: Optional[float] = None,
):
    """Run a scenario sweep and return its
    :class:`~repro.scenarios.sweep.ScenarioSweepResult`.

    ``scenarios`` defaults to every registered scenario; ``metric`` is the
    ranking tie-break (lower is better).  ``store`` attaches a campaign
    store shared by every scenario of the sweep — a warm sweep recovers all
    its cells from the journal and executes zero simulations.  ``ci_target``
    runs every scenario's campaign with sequential stopping (see
    :func:`run`); the cross-scenario ranking then marks heuristics whose
    CIs overlap as ties (``#r=``) instead of claiming a strict order.  The
    returned object carries every scenario's records in one combined
    ``result_set`` ready for :func:`save_results`.
    """
    from .scenarios import run_sweep  # deferred: keeps `import repro.api` light

    resolved = _resolve_config(config, scale, seed, jobs, observers, store, ci_target)
    return run_sweep(names=scenarios, config=resolved, metric=metric)


def validate(
    *,
    seed: int = 2003,
    quick: bool = False,
    include_sequential: bool = True,
    json_path: Optional[Union[str, "os.PathLike[str]"]] = None,
):
    """Validate the simulator against closed-form queueing baselines.

    Runs the analytical validation suite
    (:func:`repro.stats.run_validation`): the fluid simulator's M/M/1 and
    M/M/c mean response times must fall inside their 95% confidence
    intervals around the exact Erlang-C values, and (unless
    ``include_sequential`` is false) a sequential campaign must be
    byte-identical at ``jobs=1`` and ``jobs=2``.  ``quick`` trades
    statistical power for speed (CI smoke use).  Returns the
    :class:`~repro.stats.ValidationReport`; check ``report.passed``.
    ``json_path`` additionally writes the machine-readable report (the CI
    artifact).  The shell form is ``repro validate``.
    """
    from .stats import run_validation  # deferred: keeps `import repro.api` light

    report = run_validation(
        seed=seed, quick=quick, include_sequential=include_sequential
    )
    if json_path is not None:
        report.save_json(json_path)
    return report


def check(
    paths: Optional[Sequence[Union[str, "os.PathLike[str]"]]] = None,
    *,
    baseline: Optional[Union[str, "os.PathLike[str]"]] = None,
    update_baseline: bool = False,
    select: Optional[Sequence[str]] = None,
    json_path: Optional[Union[str, "os.PathLike[str]"]] = None,
):
    """Statically check sources against the determinism & contract rules.

    Runs the :mod:`repro.analysis` linter (stdlib ``ast``, no third-party
    dependencies) over ``paths`` — by default the installed ``repro``
    package: seeded RNG only, no wall clocks in the simulation path, ordered
    iteration wherever bytes are persisted, declared fingerprint roles on
    every config field, atomic persistence writes, exact float text, a
    stable ``__all__`` surface and library-hierarchy exceptions in dispatch
    paths.  Returns the :class:`~repro.analysis.CheckReport`; gate on
    ``report.clean`` / ``report.exit_code``.  ``json_path`` additionally
    writes the machine-readable report (the CI ``lint-report`` artifact).
    The shell form is ``repro check``.
    """
    from .analysis import run_check  # deferred: keeps `import repro.api` light

    return run_check(
        None if paths is None else [os.fspath(p) for p in paths],
        baseline=baseline,
        update_baseline=update_baseline,
        select=select,
        json_path=json_path,
    )


def profile(
    scenario: str,
    *,
    tasks: Optional[int] = None,
    metatasks: Optional[int] = None,
    repetitions: Optional[int] = None,
    heuristics: Optional[Sequence[str]] = None,
    seed: int = 2003,
    jobs: int = 1,
    json_path: Optional[PathLike] = None,
    cprofile: bool = False,
    top: int = 20,
    trace_path: Optional[PathLike] = None,
    limit: Optional[int] = None,
    metrics_path: Optional[PathLike] = None,
    csv_path: Optional[PathLike] = None,
    interval: Optional[float] = None,
    window: Optional[float] = None,
    chrome_path: Optional[PathLike] = None,
):
    """Profile one scenario campaign and return its
    :class:`~repro.obs.PerfReport`.

    Runs ``scenario`` (any registry name) at a harness-controlled size —
    ``tasks`` per metatask, ``metatasks`` × ``repetitions`` cells per
    heuristic, both defaulting to one representative cell — under wall-clock
    phase timers (setup / workload-gen / simulate / aggregate / report) and
    collects the hot-path counters of every run (fluid queue and network
    events, agent traffic, HTM activity).  ``cprofile=True`` additionally
    wraps the simulate phase in :mod:`cProfile` and reports the ``top``
    functions by cumulative time (forced off when ``jobs > 1``).
    ``json_path`` writes the machine-readable ``perf-report.json``.

    The same run can be instrumented, and each output path turns on what it
    needs:

    * ``trace_path`` traces every cell and writes one JSONL line per
      virtual-time event — task lifecycle, dispatch decisions with
      per-candidate scores and report staleness, monitor reports, fault
      windows, HTM predictions.  ``limit`` bounds each cell's event ring
      (dropped events are counted in a marker line, never silent).
    * ``metrics_path`` / ``csv_path`` sample every cell each ``interval``
      virtual seconds (default 60; ``window`` sets the sliding window of the
      windowed throughput / latency columns, default 5× the interval) and
      write the series as versioned JSONL / long-format CSV.
    * ``chrome_path`` writes the Chrome ``trace_event`` export of whatever
      was recorded: event lanes, counter tracks, or both under one process
      per cell (open in ``chrome://tracing`` or ui.perfetto.dev).

    Traces and series carry virtual time only, so their files are
    byte-identical at any ``jobs`` level and the run's records equal an
    uninstrumented run's; only the wall-clock numbers of the report vary
    run to run.  The report carries the cell traces and series on
    ``traces`` / ``metrics``.  The shell form is ``repro profile``.
    """
    from .obs import (  # deferred: keeps `import repro.api` light
        Instrumentation,
        write_chrome_trace,
        write_metrics_csv,
        write_metrics_jsonl,
        write_trace_jsonl,
    )
    from .obs.metrics import DEFAULT_INTERVAL_S
    from .obs.profile import profile_scenario

    trace = trace_path is not None
    metrics = metrics_path is not None or csv_path is not None
    if limit is not None and not trace:
        raise ExperimentError("a trace limit needs a trace output (--trace)")
    if (interval is not None or window is not None) and not metrics:
        raise ExperimentError(
            "a metrics interval or window needs a metrics output (--metrics or --csv)"
        )
    if chrome_path is not None and not (trace or metrics):
        raise ExperimentError(
            "the Chrome export needs a trace or metrics output (--trace, --metrics or --csv)"
        )
    instrumentation = Instrumentation(
        trace=trace,
        trace_limit=limit,
        metrics_interval=(
            (DEFAULT_INTERVAL_S if interval is None else interval) if metrics else None
        ),
        metrics_window=window,
    )
    report = profile_scenario(
        scenario,
        tasks=tasks,
        metatasks=metatasks,
        repetitions=repetitions,
        heuristics=heuristics,
        seed=seed,
        jobs=jobs,
        instrumentation=instrumentation,
        cprofile=cprofile,
        top=top,
    )
    if json_path is not None:
        report.save_json(os.fspath(json_path))
    if trace_path is not None:
        write_trace_jsonl(os.fspath(trace_path), report.traces)
    if metrics_path is not None:
        write_metrics_jsonl(os.fspath(metrics_path), report.metrics)
    if csv_path is not None:
        write_metrics_csv(os.fspath(csv_path), report.metrics)
    if chrome_path is not None:
        write_chrome_trace(
            os.fspath(chrome_path), report.traces, cell_metrics=report.metrics
        )
    return report


def load_results(path: Union[str, "os.PathLike[str]"]) -> ResultSet:
    """Load a result set saved by :func:`save_results` / ``ResultSet.save``.

    The format is inferred from the extension (``.jsonl`` / ``.json`` /
    ``.csv``); files written by a future schema version are rejected with a
    :class:`~repro.errors.ResultsError`.
    """
    return ResultSet.load(path)


def save_results(results: ResultsLike, path: Union[str, "os.PathLike[str]"]) -> str:
    """Save a result set (or any result object carrying one) to ``path``.

    Accepts a :class:`~repro.results.ResultSet`, a
    :class:`~repro.experiments.runner.TableResult` or a
    :class:`~repro.scenarios.sweep.ScenarioSweepResult`; the extension picks
    the format (see :func:`load_results`).  Returns the path written.
    """
    result_set = _as_result_set(results, allow_paths=False)
    return result_set.save(path)


def compare(a: ResultsLike, b: ResultsLike, *, rel_tol: float = 0.0) -> ResultDiff:
    """Diff two result sets, result objects or saved result files.

    Records are paired on ``(experiment_id, heuristic, metatask_index,
    repetition)``; every metric and provenance difference is reported.
    ``rel_tol`` relaxes metric comparisons (0.0 = exact).  Use
    ``compare(...).identical`` as the determinism check, or ``repro results
    diff`` from the shell.
    """
    return diff_result_sets(
        _as_result_set(a), _as_result_set(b), rel_tol=rel_tol
    )


def _as_result_set(value: ResultsLike, allow_paths: bool = True) -> ResultSet:
    if isinstance(value, ResultSet):
        return value
    carried = getattr(value, "result_set", None)
    if isinstance(carried, ResultSet):
        return carried
    if allow_paths and isinstance(value, (str, os.PathLike)):
        return load_results(value)
    raise ResultsError(
        f"cannot interpret {value!r} as a result set (expected a ResultSet, "
        "a result object carrying one, or a saved results file path)"
    )
