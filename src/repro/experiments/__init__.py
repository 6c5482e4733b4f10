"""Experiment harness reproducing every table and figure of the paper."""

from .config import (
    BENCH_SCALE,
    FULL_SCALE,
    HIGH_RATE_MEAN_S,
    LOW_RATE_MEAN_S,
    PAPER_HEURISTIC_ORDER,
    SCALES,
    SMOKE_SCALE,
    TASKS_PER_METATASK,
    ExperimentConfig,
    ExperimentScale,
)
from .campaign import (
    CellWork,
    MultiprocessingExecutor,
    RunCell,
    SerialExecutor,
    create_executor,
    derive_seed_offset,
    plan_cells,
    run_campaign,
)
from .fig1 import Fig1Result, run_fig1
from .registry import EXPERIMENTS, ExperimentEntry, experiment_ids, get_experiment, run_experiment
from .runner import HeuristicOutcome, TableResult, run_single
from .set1 import run_table5, run_table6
from .set2 import run_table7, run_table8
from .validation import ValidationResult, ValidationRow, run_table1, table1_metatasks

__all__ = [
    "ExperimentConfig",
    "ExperimentScale",
    "FULL_SCALE",
    "SMOKE_SCALE",
    "BENCH_SCALE",
    "SCALES",
    "TASKS_PER_METATASK",
    "LOW_RATE_MEAN_S",
    "HIGH_RATE_MEAN_S",
    "PAPER_HEURISTIC_ORDER",
    "TableResult",
    "HeuristicOutcome",
    "run_single",
    "run_campaign",
    "RunCell",
    "CellWork",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "create_executor",
    "plan_cells",
    "derive_seed_offset",
    "run_table1",
    "table1_metatasks",
    "ValidationResult",
    "ValidationRow",
    "run_fig1",
    "Fig1Result",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_table8",
    "EXPERIMENTS",
    "ExperimentEntry",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
]
