"""The paper's primary contribution: the HTM, the perturbation and the heuristics.

This package contains everything Section 2.3–4 of the paper describes:

* :class:`HistoricalTraceManager` — the in-agent simulation of every mapped
  task (per-server Gantt charts, completion predictions, perturbations);
* :class:`~repro.core.records.HtmPrediction` — the what-if result the
  heuristics reason about;
* the scheduling heuristics (:mod:`repro.core.heuristics`): MCT (baseline),
  HMCT, MP, MSF, plus extensions.
"""

from .gantt import GanttChart, GanttPhase, GanttRow, chart_from_states
from .htm import HistoricalTraceManager, ServerTrace
from .records import HtmPrediction, TracedTask
from .heuristics import (
    Decision,
    Heuristic,
    HtmHeuristic,
    SchedulingContext,
    ServerInfo,
    MctHeuristic,
    HmctHeuristic,
    MpHeuristic,
    MsfHeuristic,
    MniHeuristic,
    HEURISTIC_REGISTRY,
    PAPER_HEURISTICS,
    create_heuristic,
    available_heuristics,
)

__all__ = [
    "HistoricalTraceManager",
    "ServerTrace",
    "HtmPrediction",
    "TracedTask",
    "GanttChart",
    "GanttRow",
    "GanttPhase",
    "chart_from_states",
    "Decision",
    "Heuristic",
    "HtmHeuristic",
    "SchedulingContext",
    "ServerInfo",
    "MctHeuristic",
    "HmctHeuristic",
    "MpHeuristic",
    "MsfHeuristic",
    "MniHeuristic",
    "HEURISTIC_REGISTRY",
    "PAPER_HEURISTICS",
    "create_heuristic",
    "available_heuristics",
]
