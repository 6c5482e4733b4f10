"""Scenario sweeps: run a heuristic × scenario grid and rank per regime.

A sweep runs every requested scenario through the campaign engine and
assembles a cross-scenario summary table ranking the heuristics per regime
(:func:`repro.metrics.comparison.cross_scenario_ranking`).  Determinism is
inherited from :func:`repro.scenarios.scenario.run_scenario`: each scenario's
cell seeds derive from ``(scenario CRC, metatask, repetition)`` coordinates,
so ``--jobs 1`` and ``--jobs 64`` render byte-identical reports, and the
sweep's result is independent of the order scenarios are listed in.

Every per-scenario run contributes its provenance-stamped records to one
combined :class:`~repro.results.ResultSet`
(``ScenarioSweepResult.result_set``) — persist it with
``result_set.save("sweep.jsonl")`` and every per-scenario table re-renders
from the loaded records.

The documented entry point is :func:`repro.api.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from ..errors import ExperimentError
from ..experiments.campaign import METRIC_ROW_TO_SUMMARY_FIELD
from ..experiments.config import ExperimentConfig, FULL_SCALE
from ..metrics.comparison import cross_scenario_ranking, rank_heuristics
from ..metrics.report import render_markdown_table, render_table
from ..results import CampaignObserver, ResultSet
from .scenario import get_scenario, run_scenario, scenario_names

__all__ = ["ScenarioSweepResult", "run_sweep"]

#: Metric rows every campaign table produces — the valid ranking tie-breaks
#: ("completed tasks" dominates the ranking and is not itself a tie-break).
_RANKABLE_METRICS = tuple(
    row for row in METRIC_ROW_TO_SUMMARY_FIELD if row != "completed tasks"
)


@dataclass
class ScenarioSweepResult:
    """Everything a scenario sweep produced.

    ``tables`` maps scenario name → the scenario's ``TableResult``;
    ``ranking`` maps heuristic → {scenario: ``"#rank (metric value)"``} and is
    the cross-scenario summary rendered by :meth:`render`; ``result_set``
    holds every scenario's run records in one persistable set.
    """

    metric: str
    tables: Dict[str, object] = field(default_factory=dict)
    ranking: Dict[str, Dict[str, str]] = field(default_factory=dict)
    result_set: Optional[ResultSet] = None

    def best_per_scenario(self) -> Dict[str, str]:
        """The winning heuristic of every scenario (rank #1)."""
        return {
            name: rank_heuristics(table.columns, metric=self.metric)[0]
            for name, table in self.tables.items()
        }

    def render(self) -> str:
        """Per-scenario tables followed by the cross-scenario ranking."""
        parts = [table.render() for table in self.tables.values()]
        parts.append(
            render_table(
                self.ranking,
                title=(
                    f"Cross-scenario ranking — heuristics ranked per scenario "
                    f"(completed tasks first, then {self.metric}; #1 is best)"
                ),
            )
        )
        return "\n\n".join(parts)

    def render_markdown(self) -> str:
        """Markdown rendering (per-scenario tables + ranking) for reports."""
        parts = [
            f"### {name}\n\n{table.render_markdown()}"
            for name, table in self.tables.items()
        ]
        parts.append("### Cross-scenario ranking\n\n" + render_markdown_table(self.ranking))
        return "\n\n".join(parts)

    def __str__(self) -> str:
        return self.render()


def run_sweep(
    names: Optional[Sequence[str]] = None,
    config: Optional[ExperimentConfig] = None,
    jobs: Optional[int] = None,
    metric: str = "sumflow",
    observers: Sequence[CampaignObserver] = (),
    store=None,
) -> ScenarioSweepResult:
    """Run scenarios (all registered ones by default) and rank the heuristics.

    Scenarios execute one after the other; *within* each scenario the campaign
    engine fans its cells out over ``jobs`` workers.  Every scenario is seeded
    independently of the sweep composition, so sweeping a subset reproduces
    exactly the numbers of the full sweep's corresponding rows.

    ``observers`` stream every cell completion of every scenario (on top of
    any observers already attached to ``config.observers``).  ``store`` (a
    :class:`~repro.store.CampaignStore` or directory path, overriding
    ``config.store``) attaches the campaign store to every scenario campaign:
    per-scenario cells already journaled are recovered without simulating, so
    a warm sweep replays in milliseconds with byte-identical records, and a
    sweep killed mid-flight resumes cell-exactly.
    """
    names = list(names) if names is not None else scenario_names()
    if not names:
        raise ExperimentError("a scenario sweep needs at least one scenario")
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise ExperimentError(f"duplicate scenarios in sweep: {sorted(duplicates)}")
    if metric not in _RANKABLE_METRICS:
        # Fail fast: a metric typo must not surface as a KeyError *after*
        # hours of full-scale scenario runs.
        raise ExperimentError(
            f"unknown ranking metric {metric!r}; available: {sorted(_RANKABLE_METRICS)}"
        )
    config = config if config is not None else ExperimentConfig(scale=FULL_SCALE)
    if observers:
        config = replace(config, observers=tuple(config.observers) + tuple(observers))
    store = store if store is not None else config.store
    if store is not None:
        # Resolve once (paths included, also when riding on ``config.store``)
        # so every scenario campaign shares one open journal instead of
        # replaying it per scenario.
        from ..store import open_store

        config = replace(config, store=open_store(store))

    combined = ResultSet(
        meta={
            "experiment_id": "scenario-sweep",
            "title": f"Scenario sweep — {len(names)} scenario(s), ranked by {metric}",
            "metric": metric,
            "scenarios": names,
            "scale": config.scale.name,
            "seed": config.seed,
        }
    )
    result = ScenarioSweepResult(metric=metric, result_set=combined)
    for name in names:
        scenario = get_scenario(name)  # fail fast on typos, before hours of runs
        table = run_scenario(scenario, config=config, jobs=jobs)
        result.tables[name] = table
        combined.extend(table.result_set)
    result.ranking = cross_scenario_ranking(
        {name: table.columns for name, table in result.tables.items()},
        metric=metric,
        # Per-cell aggregates switch on significance-aware ties (``#r=``):
        # heuristics whose CIs overlap share a rank instead of overclaiming
        # "A beats B".  Single-repetition sweeps carry zero-width intervals,
        # so their rankings only mark *exact* metric ties.
        scenario_aggregates={
            name: table.aggregates for name, table in result.tables.items()
        },
    )
    return result
