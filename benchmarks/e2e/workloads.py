"""Workloads, campaign timing and the output gate of the end-to-end benchmark.

Everything here drives the ``repro`` package through its public functions
only: ``get_scenario``, ``scenario_config``, ``build_scenario_metatasks``,
``run_campaign(jobs=1)`` with a ``CampaignObserver``,
``ResultSet.to_jsonl`` and ``table.outcomes[*].runs[*]``.  The module imports
``repro`` lazily (inside functions) so that ``run.py`` can time the import
as part of set-up.

Load model: a campaign is a closed loop of cells run one after another in
one process (``jobs=1``); the next cell starts when the previous one ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Seed of the committed record hashes (``expected-2003.json``).
DEFAULT_SEED = 2003

#: Fresh processes timed for ``setup_s`` (the metric is their median).
SETUP_SAMPLES = 5

#: Size of the untimed warm-up campaign each measuring process runs first,
#: so lazy imports and first-call costs land outside ``cell_ms``.
WARMUP_TASKS = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registry scenario at a pinned size."""

    name: str
    scenario: str
    heuristics: Tuple[str, ...]
    tasks: int
    metatasks: int
    why: str

    @property
    def cells(self) -> int:
        return len(self.heuristics) * self.metatasks

    @property
    def reference(self) -> str:
        return "mct" if "mct" in self.heuristics else self.heuristics[0]


# Each workload stresses a different layer; ``mct-only`` is the bypass case
# on which any HTM optimisation must change nothing.  Sizes keep every
# campaign near 4 s on a 2-core host with at least 48 cells, so that
# ``cell_ms_p75`` has ten or more cells beyond it.  ``htm-deep`` uses many
# short metatasks: a 32-task metatask holds about one storm, which keeps
# its cost from one seed to the next far steadier than 16 longer ones.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="htm-wide",
            scenario="hetero-farm-16",
            heuristics=("hmct", "mp", "msf"),
            tasks=50,
            metatasks=16,
            why=(
                "HTM fan-out: 16 what-if predictions per committed task on "
                "shallow traces, little ground-truth work"
            ),
        ),
        Workload(
            name="htm-deep",
            scenario="burst-storm",
            heuristics=("hmct", "mp", "msf"),
            tasks=32,
            metatasks=32,
            why=(
                "HTM depth: arrival storms keep ~8x more tracked tasks per "
                "prediction than htm-wide, and memory collapses make the HTM take writes"
            ),
        ),
        Workload(
            name="mct-only",
            scenario="paper-farm-12",
            heuristics=("mct",),
            tasks=250,
            metatasks=48,
            why=(
                "bypass: the HTM never runs; time goes to ground-truth fluid "
                "servers, the event calendar, agent context and monitors"
            ),
        ),
        Workload(
            name="paper-table",
            scenario="paper-low-rate",
            heuristics=("mct", "hmct", "mp", "msf"),
            tasks=100,
            metatasks=12,
            why=(
                "the Table 5 protocol users run: about half HTM and a third ground "
                "truth plus calendar, so a gain on one layer that costs another shows"
            ),
        ),
    )
}


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}"
        ) from None


def sized(workload: Workload, tasks: Optional[int], metatasks: Optional[int]) -> Workload:
    """``workload`` with its size overridden (tests run tiny sizes)."""
    return replace(
        workload,
        tasks=tasks if tasks is not None else workload.tasks,
        metatasks=metatasks if metatasks is not None else workload.metatasks,
    )


@dataclass
class Built:
    """A workload materialised against a seed: the campaign's inputs."""

    workload: Workload
    config: object
    platform: object
    metatasks: list
    platform_ms: float
    workload_gen_ms: float


def build(workload: Workload, seed: int) -> Built:
    """Config and platform build, then metatask generation (both timed)."""
    from repro.experiments.config import ExperimentConfig, ExperimentScale
    from repro.scenarios.scenario import (
        build_scenario_metatasks,
        get_scenario,
        scenario_config,
    )

    t0 = time.perf_counter()
    scenario = get_scenario(workload.scenario)
    scale = ExperimentScale(
        name=f"e2e-{workload.name}",
        task_count=workload.tasks,
        metatask_count=workload.metatasks,
        repetitions=1,
    )
    config = scenario_config(scenario, ExperimentConfig(scale=scale, seed=seed, jobs=1))
    config = replace(config, heuristics=workload.heuristics, reference=workload.reference)
    platform = scenario.platform_factory()
    t1 = time.perf_counter()
    metatasks = build_scenario_metatasks(scenario, config)
    t2 = time.perf_counter()
    return Built(
        workload=workload,
        config=config,
        platform=platform,
        metatasks=metatasks,
        platform_ms=(t1 - t0) * 1e3,
        workload_gen_ms=(t2 - t1) * 1e3,
    )


def _cell_clock():
    """A ``CampaignObserver`` stamping the host clock at each cell boundary."""
    from repro.results import CampaignObserver

    class CellClock(CampaignObserver):
        def __init__(self) -> None:
            self.stamps: List[float] = []

        def on_campaign_start(self, experiment_id: str, total_cells: int) -> None:
            self.stamps = [time.perf_counter()]

        def on_cell_complete(self, index, total, record, cached=False) -> None:
            self.stamps.append(time.perf_counter())

    return CellClock()


def run_once(built: Built):
    """Run the workload's campaign once; returns ``(table, wall_s, cell_s)``."""
    from repro.experiments.campaign import run_campaign

    clock = _cell_clock()
    t0 = time.perf_counter()
    table = run_campaign(
        experiment_id=f"e2e-{built.workload.name}",
        title=f"end-to-end benchmark {built.workload.name}",
        platform=built.platform,
        metatasks=built.metatasks,
        config=built.config,
        jobs=1,
        observers=[clock],
    )
    wall = time.perf_counter() - t0
    cells = [b - a for a, b in zip(clock.stamps, clock.stamps[1:])]
    return table, wall, cells


def warm_up(workload: Workload, seed: int) -> None:
    """One tiny untimed campaign over every heuristic of the workload."""
    run_once(build(sized(workload, WARMUP_TASKS, 1), seed))


# --------------------------------------------------------------------------- #
# output gate
# --------------------------------------------------------------------------- #
def cell_key(heuristic: str, metatask_index: int, repetition: int) -> str:
    return f"{heuristic}/m{metatask_index}/r{repetition}"


def record_hashes(table) -> Dict[str, str]:
    """sha256 of each cell's record line in ``ResultSet.to_jsonl()``."""
    lines = table.result_set.to_jsonl().splitlines()[1:]  # skip the header
    out: Dict[str, str] = {}
    for line in lines:
        data = json.loads(line)
        key = cell_key(data["heuristic"], data["metatask_index"], data["repetition"])
        out[key] = hashlib.sha256(line.encode("utf-8")).hexdigest()
    return out


def _cell_problem(run, record, workload: Workload) -> Optional[str]:
    """The first lifecycle invariant one cell breaks, or ``None``."""
    from repro.workload.tasks import TaskStatus

    if run.truncated or record.truncated:
        return "truncated by the safety horizon"
    if len(run.tasks) != workload.tasks:
        return f"{len(run.tasks)} tasks, expected {workload.tasks}"
    if len({t.task_id for t in run.tasks}) != len(run.tasks):
        return "duplicated task id"
    completed = 0
    for task in run.tasks:
        successes = sum(1 for a in task.attempts if a.finished_at is not None)
        if task.status not in (TaskStatus.COMPLETED, TaskStatus.FAILED):
            return f"task {task.task_id} ended {task.status.value}"
        if successes > 1:
            return f"task {task.task_id} completed {successes} times"
        if task.completed != (successes == 1):
            return f"task {task.task_id} status disagrees with its attempts"
        completed += task.completed
    if record.metrics.get("n_completed") != completed:
        return f"record n_completed={record.metrics.get('n_completed')} but {completed} tasks completed"
    return None


def invariant_failures(table, workload: Workload) -> Dict[str, str]:
    """Cells breaking a lifecycle invariant, with the first broken rule.

    * every task of the cell is terminal exactly once: COMPLETED or FAILED,
      at most one successful attempt, a completion date iff completed, no
      duplicated task id, as many tasks as the metatask holds;
    * the record's ``n_completed`` equals the completed tasks in the run;
    * the cell was not truncated by the safety horizon.
    """
    records = {
        cell_key(r.heuristic, r.metatask_index, r.repetition): r
        for r in table.result_set
    }
    # Runs of one heuristic are appended in planned (metatask, rep) order.
    runs = {
        cell_key(heuristic, index, 0): run
        for heuristic, outcome in table.outcomes.items()
        for index, run in enumerate(outcome.runs)
    }
    failures = {key: "record and run do not pair up" for key in set(records) ^ set(runs)}
    for key, run in runs.items():
        problem = _cell_problem(run, records[key], workload) if key in records else None
        if problem is not None:
            failures[key] = problem
    return failures


def expected_path(seed: int) -> Path:
    return HERE / f"expected-{seed}.json"


def load_expected(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Committed record hashes of ``workload`` at ``seed`` (``None``: none)."""
    path = expected_path(seed)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload)


def gate(
    table, workload: Workload, expected: Optional[Dict[str, str]]
) -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(hashes, failures)`` of one finished campaign.

    ``failures`` maps a cell key to why it failed: a broken invariant, or a
    record hash that differs from ``expected`` (when hashes are known).
    """
    hashes = record_hashes(table)
    failures = invariant_failures(table, workload)
    if expected is not None:
        for key, digest in hashes.items():
            if expected.get(key) != digest:
                failures.setdefault(key, "record hash differs from the expected one")
    return hashes, failures


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def count_tasks(table) -> int:
    """Simulated tasks that reached a terminal state in a campaign."""
    from repro.workload.tasks import TaskStatus

    terminal = (TaskStatus.COMPLETED, TaskStatus.FAILED)
    return sum(
        1
        for outcome in table.outcomes.values()
        for run in outcome.runs
        for task in run.tasks
        if task.status in terminal
    )
