"""Ablation studies.

The paper motivates several design choices that these ablations quantify, and
lists two future-work items that the library implements as options.  Each
ablation returns a :class:`~repro.experiments.runner.TableResult`-style
comparison so the benchmark harness can print it like the paper's tables.

* :func:`ablation_monitor_period` — how stale load reports hurt MCT (the HTM
  heuristics do not use them, hence are insensitive).
* :func:`ablation_htm_resync` — HTM with / without re-anchoring on completion
  messages (second future-work item).
* :func:`ablation_memory_aware_msf` — MSF that skips memory-saturated servers
  (first future-work item) against plain MSF at the collapse-inducing rate.
* :func:`ablation_communication_model` — HTM with and without the transfer
  phases in its per-server traces.
* :func:`ablation_arrival_rate_sweep` — sum-flow of each heuristic across a
  range of arrival rates (where the MP/MSF advantage grows).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.heuristics import create_heuristic
from ..core.heuristics.msf import MsfHeuristic
from ..metrics.flow import summarize
from ..platform.middleware import GridMiddleware, MiddlewareConfig
from ..platform.spec import PlatformSpec
from ..workload.metatask import Metatask
from ..workload.testbed import (
    first_set_platform,
    matmul_metatask,
    second_set_platform,
    wastecpu_metatask,
)
from .config import ExperimentConfig, SMOKE_SCALE
from .runner import TableResult, run_single

__all__ = [
    "ablation_monitor_period",
    "ablation_htm_resync",
    "ablation_memory_aware_msf",
    "ablation_communication_model",
    "ablation_arrival_rate_sweep",
    "ablation_dual_cpu",
]


def _default_config() -> ExperimentConfig:
    return ExperimentConfig(scale=SMOKE_SCALE)


def _metatask_for(config: ExperimentConfig, family: str, rate: float) -> Metatask:
    rng = np.random.default_rng(config.seed)
    if family == "matmul":
        return matmul_metatask(config.scale.task_count, rate, rng=rng, name=f"ablation-{family}")
    return wastecpu_metatask(config.scale.task_count, rate, rng=rng, name=f"ablation-{family}")


def ablation_monitor_period(
    periods_s: Sequence[float] = (5.0, 30.0, 120.0),
    config: Optional[ExperimentConfig] = None,
) -> TableResult:
    """Sum-flow of MCT vs MSF as the monitor report period grows."""
    config = config if config is not None else _default_config()
    metatask = _metatask_for(config, "wastecpu", config.low_rate_s)
    platform = second_set_platform()
    columns: Dict[str, Dict[str, float]] = {}
    for period in periods_s:
        middleware_config = replace(config.middleware, monitor_period_s=period, seed=config.seed)
        for heuristic in ("mct", "msf"):
            run = run_single(platform, metatask, heuristic, middleware_config)
            summary = summarize(run.tasks, heuristic)
            columns.setdefault(f"{heuristic} @ {period:g}s", {}).update(
                {
                    "sumflow": summary.sum_flow,
                    "maxstretch": summary.max_stretch,
                    "completed tasks": summary.n_completed,
                }
            )
    return TableResult(
        experiment_id="ablation-monitor-period",
        title="Ablation — monitor report period (stale information hurts MCT only)",
        columns=columns,
        outcomes={},
        notes=[f"workload: {metatask.name}, rate {config.low_rate_s:g}s"],
    )


def ablation_htm_resync(config: Optional[ExperimentConfig] = None) -> TableResult:
    """HTM heuristics with and without re-anchoring on completion messages."""
    config = config if config is not None else _default_config()
    metatask = _metatask_for(config, "wastecpu", config.high_rate_s)
    platform = second_set_platform()
    columns: Dict[str, Dict[str, float]] = {}
    for resync in (True, False):
        middleware_config = replace(config.middleware, htm_resync=resync, seed=config.seed)
        for heuristic in ("hmct", "msf"):
            run = run_single(platform, metatask, heuristic, middleware_config)
            summary = summarize(run.tasks, heuristic)
            label = f"{heuristic} ({'resync' if resync else 'no resync'})"
            columns[label] = {
                "sumflow": summary.sum_flow,
                "maxflow": summary.max_flow,
                "makespan": summary.makespan,
                "completed tasks": summary.n_completed,
            }
    return TableResult(
        experiment_id="ablation-htm-resync",
        title="Ablation — HTM re-anchoring on completion messages (future work #2)",
        columns=columns,
        outcomes={},
        notes=[f"workload: {metatask.name}, rate {config.high_rate_s:g}s"],
    )


def ablation_memory_aware_msf(config: Optional[ExperimentConfig] = None) -> TableResult:
    """Memory-aware MSF (future work #1) vs plain MSF vs HMCT at the collapse rate."""
    config = config if config is not None else _default_config()
    metatask = _metatask_for(config, "matmul", config.high_rate_s)
    platform = first_set_platform()
    memory_limits = {
        name: platform.machine(name).collapse_threshold_mb for name in platform.server_names()
    }
    candidates = {
        "hmct": create_heuristic("hmct"),
        "msf": create_heuristic("msf"),
        "msf (memory aware)": MsfHeuristic(memory_aware=True, memory_limits=memory_limits),
    }
    columns: Dict[str, Dict[str, float]] = {}
    for label, heuristic in candidates.items():
        middleware_config = replace(config.middleware, seed=config.seed)
        run = run_single(platform, metatask, heuristic, middleware_config)
        summary = summarize(run.tasks, label)
        collapses = sum(stats.get("collapses", 0) for stats in run.server_stats.values())
        columns[label] = {
            "completed tasks": summary.n_completed,
            "sumflow": summary.sum_flow,
            "maxstretch": summary.max_stretch,
            "server collapses": collapses,
        }
    return TableResult(
        experiment_id="ablation-memory-aware-msf",
        title="Ablation — memory-aware scheduling (future work #1)",
        columns=columns,
        outcomes={},
        notes=[f"workload: {metatask.name}, rate {config.high_rate_s:g}s, memory model on"],
    )


def ablation_communication_model(config: Optional[ExperimentConfig] = None) -> TableResult:
    """HTM with and without the input/output transfer phases in its traces."""
    config = config if config is not None else _default_config()
    metatask = _metatask_for(config, "matmul", config.low_rate_s)
    platform = first_set_platform()
    columns: Dict[str, Dict[str, float]] = {}
    for model_comm in (True, False):
        middleware_config = replace(
            config.middleware, htm_model_communication=model_comm, seed=config.seed
        )
        for heuristic in ("hmct", "msf"):
            run = run_single(platform, metatask, heuristic, middleware_config)
            summary = summarize(run.tasks, heuristic)
            label = f"{heuristic} ({'3-phase' if model_comm else 'compute-only'})"
            columns[label] = {
                "sumflow": summary.sum_flow,
                "maxflow": summary.max_flow,
                "maxstretch": summary.max_stretch,
            }
    return TableResult(
        experiment_id="ablation-communication-model",
        title="Ablation — modelling the data transfers inside the HTM",
        columns=columns,
        outcomes={},
        notes=[f"workload: {metatask.name}, rate {config.low_rate_s:g}s"],
    )


def ablation_dual_cpu(config: Optional[ExperimentConfig] = None) -> TableResult:
    """Single-CPU vs dual-CPU Xeon servers (Table 2 ambiguity, see EXPERIMENTS.md).

    Table 2 does not state the processor count of the Xeon servers.  With a
    single CPU per server the effective contention is higher than what the
    published sum-flows suggest; with dual-CPU Xeons the low-rate sum-flows
    land very close to Tables 5 and 7 (including MP being *worse* than MCT).
    This ablation quantifies both readings on the waste-cpu workload.
    """
    config = config if config is not None else _default_config()
    metatask = _metatask_for(config, "wastecpu", config.low_rate_s)
    columns: Dict[str, Dict[str, float]] = {}
    for dual in (False, True):
        platform = second_set_platform(dual_cpu_xeons=dual)
        for heuristic in ("mct", "mp", "msf"):
            middleware_config = replace(config.middleware, seed=config.seed)
            run = run_single(platform, metatask, heuristic, middleware_config)
            summary = summarize(run.tasks, heuristic)
            label = f"{heuristic} ({'dual' if dual else 'single'}-CPU xeons)"
            columns[label] = {
                "sumflow": summary.sum_flow,
                "maxstretch": summary.max_stretch,
                "makespan": summary.makespan,
            }
    return TableResult(
        experiment_id="ablation-dual-cpu",
        title="Ablation — processor count of the Xeon servers",
        columns=columns,
        outcomes={},
        notes=[f"workload: {metatask.name}, rate {config.low_rate_s:g}s"],
    )


def ablation_arrival_rate_sweep(
    rates_s: Sequence[float] = (30.0, 20.0, 15.0, 12.0),
    heuristics: Sequence[str] = ("mct", "hmct", "mp", "msf"),
    config: Optional[ExperimentConfig] = None,
) -> TableResult:
    """Sum-flow of each heuristic across arrival rates (waste-cpu workload)."""
    config = config if config is not None else _default_config()
    platform = second_set_platform()
    columns: Dict[str, Dict[str, float]] = {name: {} for name in heuristics}
    for rate in rates_s:
        metatask = _metatask_for(config, "wastecpu", rate)
        for heuristic in heuristics:
            middleware_config = replace(config.middleware, seed=config.seed)
            run = run_single(platform, metatask, heuristic, middleware_config)
            summary = summarize(run.tasks, heuristic)
            columns[heuristic][f"sumflow @ {rate:g}s"] = summary.sum_flow
    return TableResult(
        experiment_id="ablation-arrival-rate-sweep",
        title="Ablation — sum-flow across arrival rates",
        columns=columns,
        outcomes={},
        notes=["the advantage of the HTM heuristics grows with the arrival rate"],
    )
