"""Experiment runner.

Runs one or several heuristics on one or several metatasks over a given
platform, and assembles the per-heuristic columns of the paper's result
tables: number of completed tasks, makespan, sum-flow, max-flow, max-stretch
and the number of tasks that finish sooner than under NetSolve's MCT.

Since the unified results API, a :class:`TableResult` is a *view*: the
numbers live in provenance-stamped :class:`~repro.results.RunRecord` data
carried on :attr:`TableResult.result_set`, and ``columns`` equals
``result_set.pivot().columns``.  Tables are produced by
:func:`repro.api.run` (or :func:`repro.experiments.campaign.run_campaign`
directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..core.heuristics import Heuristic
from ..metrics.comparison import PairwiseComparison
from ..metrics.flow import MetricSummary
from ..metrics.report import format_mean_ci, render_markdown_table, render_table
from ..platform.middleware import GridMiddleware, MiddlewareConfig, RunResult
from ..platform.spec import PlatformSpec
from ..results import ResultSet
from ..workload.metatask import Metatask
from ..workload.problems import PAPER_CATALOGUE, ProblemCatalogue
from .config import PAPER_HEURISTIC_ORDER

__all__ = ["HeuristicOutcome", "TableResult", "run_single", "TABLE_ROW_ORDER"]

#: Row order mirroring the layout of Tables 5–8.
TABLE_ROW_ORDER = (
    "completed tasks",
    "makespan",
    "sumflow",
    "maxflow",
    "maxstretch",
    "tasks finishing sooner than MCT",
)


@dataclass
class HeuristicOutcome:
    """Everything recorded for one heuristic across the runs of an experiment."""

    heuristic: str
    runs: List[RunResult] = field(default_factory=list)
    summaries: List[MetricSummary] = field(default_factory=list)
    comparisons: List[PairwiseComparison] = field(default_factory=list)


@dataclass
class TableResult:
    """The reproduction of one table of the paper.

    ``columns`` is the aggregated view (heuristic → {metric row: value});
    ``result_set``, when present, holds the per-run records the view was
    pivoted from — persist it with ``result_set.save("table.jsonl")`` and the
    identical table re-renders from the loaded records.
    """

    experiment_id: str
    title: str
    columns: Dict[str, Dict[str, float]]
    outcomes: Dict[str, HeuristicOutcome] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: The records behind the columns (``None`` for hand-built tables such as
    #: the ablations, which aggregate their own single runs).
    result_set: Optional[ResultSet] = None
    #: Cache-hit accounting of the producing campaign when one ran with a
    #: :class:`~repro.store.CampaignStore` attached:
    #: ``{"recovered": cells served from the journal, "executed": cells
    #: simulated}``.  ``None`` for tables not built by ``run_campaign``.
    cache_info: Optional[Dict[str, int]] = None
    #: Full per-cell :class:`~repro.metrics.aggregate.Aggregate` objects
    #: behind ``columns`` (``columns[h][row] == aggregates[h][row].mean``).
    #: Populated by :meth:`~repro.results.ResultSet.pivot`; ``None`` for
    #: hand-built tables.  Cells with two or more repetitions render as
    #: ``mean ± half-width`` (95% Student-t).
    aggregates: Optional[Dict[str, Dict[str, Any]]] = None

    def column(self, heuristic: str) -> Dict[str, float]:
        """The column (metric → value) of one heuristic."""
        return self.columns[heuristic]

    def value(self, heuristic: str, row: str) -> float:
        """One cell of the table."""
        return self.columns[heuristic][row]

    def cell_aggregate(self, heuristic: str, row: str):
        """The :class:`~repro.metrics.aggregate.Aggregate` behind one cell
        (``None`` when the table carries no aggregates)."""
        if self.aggregates is None:
            return None
        return self.aggregates.get(heuristic, {}).get(row)

    def _display_columns(self) -> Dict[str, Dict[str, Any]]:
        """Render-ready cells: ``mean ± half-width`` where a CI exists.

        Single-repetition cells (and tables without aggregates) keep their
        bare mean, so reps=1 campaigns render exactly as they always did.
        """
        if not self.aggregates:
            return self.columns
        display: Dict[str, Dict[str, Any]] = {}
        for name, rows in self.columns.items():
            column_aggregates = self.aggregates.get(name, {})
            cells: Dict[str, Any] = {}
            for row, value in rows.items():
                aggregate = column_aggregates.get(row)
                if aggregate is not None and aggregate.n >= 2:
                    cells[row] = format_mean_ci(value, aggregate.half_ci95)
                else:
                    cells[row] = value
            display[name] = cells
        return display

    def render(self) -> str:
        """Aligned plain-text rendering (same layout as the paper's tables)."""
        return render_table(
            self._display_columns(),
            title=self.title,
            column_order=[h for h in PAPER_HEURISTIC_ORDER if h in self.columns],
            row_order=[r for r in TABLE_ROW_ORDER if any(r in c for c in self.columns.values())],
            notes=self.notes,
        )

    def render_markdown(self) -> str:
        """Markdown rendering for EXPERIMENTS.md."""
        return render_markdown_table(
            self._display_columns(),
            column_order=[h for h in PAPER_HEURISTIC_ORDER if h in self.columns],
            row_order=[r for r in TABLE_ROW_ORDER if any(r in c for c in self.columns.values())],
            notes=self.notes,
        )

    def __str__(self) -> str:
        return self.render()


def run_single(
    platform: PlatformSpec,
    metatask: Metatask,
    heuristic: Union[str, Heuristic],
    middleware_config: Optional[MiddlewareConfig] = None,
    catalogue: ProblemCatalogue = PAPER_CATALOGUE,
) -> RunResult:
    """Run one heuristic once on one metatask (fresh middleware instance)."""
    middleware = GridMiddleware(
        platform=platform,
        heuristic=heuristic,
        catalogue=catalogue,
        config=middleware_config,
    )
    return middleware.run(metatask)
