"""The profiling harness: ``repro profile``.

Wraps any registry scenario in wall-clock phase timers (and optionally
``cProfile``) at a configurable size, producing the :class:`PerfReport`
behind ``perf-report.json`` — the artifact that anchors every optimisation
claim on the road to million-task runs.  An :class:`Instrumentation` value
additionally turns on the virtual-time trace bus and/or the metrics sampler
for the same run; the report then carries the cell traces and metric series
for the JSONL / CSV / Chrome ``trace_event`` exports.

The harness is the *only* place wall time and simulation meet, and it keeps
them apart by construction: phases are timed around the campaign from the
outside, traces and samples inside carry virtual time only.  An instrumented
run's records, trace bytes and series bytes are identical at any ``--jobs``
level; only the numbers in the perf report (wall seconds, tasks/s) vary run
to run.

This module imports the scenario and campaign layers, so it is *not*
re-exported from ``repro.obs`` eagerly — import it as ``repro.obs.profile``
(the :mod:`repro.api` facade and the CLI defer-import it the same way the
validation suite is).
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..errors import ExperimentError
from .instrumentation import Instrumentation
from .report import PerfReport, counter_rollup
from .wallclock import PhaseTimer

__all__ = ["profile_scenario"]


def _campaign_pieces(
    name: str,
    tasks: Optional[int],
    metatasks: Optional[int],
    repetitions: Optional[int],
    heuristics: Optional[Sequence[str]],
    seed: int,
    jobs: int,
):
    """Materialise one scenario at the harness's (possibly overridden) size."""
    # Deferred: this is the heavy end of the import graph (scenarios ->
    # campaign -> platform), and the platform layer imports repro.obs.
    from ..experiments.config import ExperimentConfig, SMOKE_SCALE
    from ..scenarios.scenario import (
        build_scenario_metatasks,
        get_scenario,
        scenario_config,
    )

    scenario = get_scenario(name)
    scale = SMOKE_SCALE
    scale = replace(
        scale,
        name="profile",
        task_count=int(tasks) if tasks is not None else scale.task_count,
        metatask_count=int(metatasks) if metatasks is not None else 1,
        repetitions=int(repetitions) if repetitions is not None else 1,
    )
    if scale.task_count < 1 or scale.metatask_count < 1 or scale.repetitions < 1:
        raise ExperimentError("tasks, metatasks and repetitions must be >= 1")
    config = ExperimentConfig(scale=scale, seed=seed, jobs=jobs)
    effective = scenario_config(scenario, config)
    if heuristics:
        duplicates = sorted({h for h in heuristics if heuristics.count(h) > 1})
        if duplicates:
            raise ExperimentError(f"heuristics {duplicates} are listed more than once")
        unknown = [h for h in heuristics if h not in scenario.heuristics]
        if unknown:
            raise ExperimentError(
                f"heuristics {unknown} are not part of scenario {name!r} "
                f"(has {list(scenario.heuristics)})"
            )
        reference = (
            scenario.reference
            if scenario.reference in heuristics
            else list(heuristics)[0]
        )
        effective = replace(
            effective, heuristics=tuple(heuristics), reference=reference
        )
    return scenario, effective


def _profile_top(profiler: cProfile.Profile, top: int) -> List[Dict[str, object]]:
    """Top-``top`` functions by cumulative time, deterministically ordered."""
    stats = pstats.Stats(profiler)
    entries = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
        filename, line, name = func
        entries.append(
            {
                "func": f"{filename}:{line}({name})",
                "ncalls": int(nc),
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    entries.sort(key=lambda e: (-e["cumtime_s"], e["func"]))
    return entries[:top]


def profile_scenario(
    name: str,
    *,
    tasks: Optional[int] = None,
    metatasks: Optional[int] = None,
    repetitions: Optional[int] = None,
    heuristics: Optional[Sequence[str]] = None,
    seed: int = 2003,
    jobs: int = 1,
    instrumentation: Optional[Instrumentation] = None,
    cprofile: bool = False,
    top: int = 20,
) -> PerfReport:
    """Run one scenario under phase timers and return its :class:`PerfReport`.

    ``tasks`` overrides the per-metatask task count (the knob behind
    ``repro profile <scenario> --tasks N``); ``metatasks`` and
    ``repetitions`` default to 1 so the harness profiles one representative
    cell per heuristic.  ``instrumentation`` turns on the trace bus and/or
    the metrics sampler; the report then carries the cell traces and metric
    series on ``traces`` / ``metrics``.  ``cprofile=True`` additionally
    wraps the simulate phase in ``cProfile`` (forced off when ``jobs > 1`` —
    a parent-process profile of a worker pool would time pickling, not
    simulation).
    """
    from ..experiments.campaign import run_campaign

    timer = PhaseTimer()
    with timer.phase("setup"):
        scenario, effective = _campaign_pieces(
            name, tasks, metatasks, repetitions, heuristics, seed, jobs
        )
        platform = scenario.platform_factory()
    with timer.phase("workload-gen"):
        from ..scenarios.scenario import build_scenario_metatasks

        workload = build_scenario_metatasks(scenario, effective)

    profiler: Optional[cProfile.Profile] = None
    if cprofile and jobs <= 1:
        profiler = cProfile.Profile()
    with timer.phase("simulate"):
        if profiler is not None:
            profiler.enable()
        try:
            table = run_campaign(
                experiment_id=f"scenario-{scenario.name}",
                title=f"profile {scenario.name}",
                platform=platform,
                metatasks=workload,
                config=effective,
                jobs=jobs,
                instrumentation=instrumentation,
            )
        finally:
            if profiler is not None:
                profiler.disable()
    with timer.phase("aggregate"):
        # Re-derive the table from the records: the same pivot/render work the
        # campaign does, measured in isolation.
        table.result_set.pivot().render()
    with timer.phase("report"):
        rollup = counter_rollup(table)
        profile_top = _profile_top(profiler, top) if profiler is not None else []

    return PerfReport(
        scenario=scenario.name,
        experiment_id=f"scenario-{scenario.name}",
        scale={
            "tasks_per_metatask": effective.scale.task_count,
            "metatasks": effective.scale.metatask_count,
            "repetitions": effective.scale.repetitions,
            "heuristics": list(effective.heuristics),
            "seed": seed,
        },
        phases=timer.items(),
        **rollup,
        profile_top=profile_top,
        jobs=jobs,
        traces=list(table.traces),
        metrics=list(table.metrics),
    )
