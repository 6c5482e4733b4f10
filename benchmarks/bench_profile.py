"""Benchmarks of the observability subsystem: what does watching cost?

Three questions, one bench each:

* what does a campaign cost with tracing *off*?  (``bench_trace_off_campaign``
  — the baseline every overhead claim is anchored to; the dormant hooks are
  ``tracer is None`` checks and plain-int counter bumps);
* what does the full trace bus cost when *on*?  (``bench_trace_on_campaign``
  measures the traced run and reports the off/on ratio in ``extra_info`` —
  tracing is opt-in, so a 10-30 % hit is acceptable there, but the records
  must stay byte-identical to the untraced run);
* what does one event emission cost?  (``bench_tracer_emit``, the unit price
  paid per dispatch/report/completion while the bus is on).

Shape assertions keep the benches honest: the traced campaign must produce
the same rendered table as the untraced one, and its trace must actually
contain events.
"""

from __future__ import annotations

from repro.experiments.campaign import run_campaign
from repro.experiments.config import ExperimentConfig, ExperimentScale
from repro.obs import Instrumentation, Tracer
from repro.scenarios.scenario import (
    build_scenario_metatasks,
    get_scenario,
    scenario_config,
)

#: Same reduced size as bench_scenarios: campaign overheads negligible,
#: CI-smoke friendly.
_BENCH_PROFILE_SCALE = ExperimentScale(
    name="bench-profile", task_count=60, metatask_count=1, repetitions=1
)

_SCENARIO = "diurnal-week"


def _campaign_kwargs():
    scenario = get_scenario(_SCENARIO)
    config = scenario_config(
        scenario, ExperimentConfig(scale=_BENCH_PROFILE_SCALE, seed=2003)
    )
    return {
        "experiment_id": f"scenario-{scenario.name}",
        "title": f"bench {scenario.name}",
        "platform": scenario.platform_factory(),
        "metatasks": build_scenario_metatasks(scenario, config),
        "config": config,
        "jobs": 1,
    }


def bench_trace_off_campaign(benchmark):
    """The untraced campaign: dormant hooks must stay in the noise."""
    table = benchmark.pedantic(
        lambda: run_campaign(**_campaign_kwargs()), rounds=3, iterations=1
    )
    assert len(table.result_set) > 0
    assert table.traces == []


def bench_trace_on_campaign(benchmark):
    """The same campaign with the trace bus on (records must not change)."""
    baseline = run_campaign(**_campaign_kwargs())

    def run():
        return run_campaign(
            **_campaign_kwargs(), instrumentation=Instrumentation(trace=True)
        )

    traced = benchmark.pedantic(run, rounds=3, iterations=1)
    # Tracing is observation only: same records, same table.
    assert traced.render() == baseline.render()
    events = sum(len(cell.events) for cell in traced.traces)
    assert events > 0, "traced campaign produced no events"
    benchmark.extra_info["events_per_run"] = events
    benchmark.extra_info["cells_per_run"] = len(traced.traces)


def bench_tracer_emit(benchmark):
    """One event emission on a bounded ring — the per-event price when on."""
    tracer = Tracer(limit=10_000)
    benchmark(
        tracer.emit,
        12.5,
        "task.dispatch",
        task="task-0001",
        server="adonis",
        heuristic="mct",
        estimated=13.75,
    )
    assert len(tracer.events()) > 0
