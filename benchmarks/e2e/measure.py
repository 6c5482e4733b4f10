"""The measuring process of the end-to-end benchmark.

``run.py`` starts this script in fresh processes, one at a time, and reads
the JSON object it prints on its last line of output:

``measure.py setup --workload W --seed N``
    Times the import of the public modules, the config/platform build and
    the metatask generation, then exits.
``measure.py run --workload W --seed N [--trace 1]``
    Does the same set-up, runs one tiny untimed warm-up campaign, then the
    workload's campaign once, timing each cell.  With ``--trace 1`` it then
    installs the layer spans (``spans.py``), runs the campaign once more,
    traced, and derives the per-layer metrics from that run alone.

Every campaign goes through the output gate of ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Dict, Optional, Tuple

import spans
import workloads as W

#: Per-layer metrics: name -> unit.  The end-to-end metric each one should
#: move, and on which workload, is in README.md.
LAYER_UNITS = {
    "engine.step.calls": "count",
    "engine.step.self_ms": "ms",
    "fluid.truth.calls": "count",
    "fluid.truth.self_ms": "ms",
    "fluid.truth.advance_to.self_ms": "ms",
    "fluid.truth.set_capacity.self_ms": "ms",
    "server.submit.self_ms": "ms",
    "server.collapses": "count",
    "agent.build_context.self_ms": "ms",
    "agent.notify.self_ms": "ms",
    "agent.schedule.calls": "count",
    "agent.schedule.us_p50": "us",
    "agent.schedule.us_p99": "us",
    "heuristic.select.self_ms": "ms",
    "htm.predict.calls": "count",
    "htm.predict.wall_pct": "%",
    "htm.predict.self_pct": "%",
    "htm.predict.tracked_mean": "tasks",
    "htm.predict.tracked_p99": "tasks",
    "htm.predicts_per_commit": "ratio",
    "htm.baseline_hit_ratio": "ratio",
    "htm.commit.self_pct": "%",
    "htm.sync.calls": "count",
    "htm.sync.self_pct": "%",
    "fluid.whatif.calls": "count",
    "fluid.whatif.self_pct": "%",
    "fluid.whatif.run_to_completion.self_pct": "%",
    "fluid.whatif.copy.self_pct": "%",
    "fluid.whatif.add_task.self_pct": "%",
    "monitor.reports": "count",
    "monitor.self_ms": "ms",
    "middleware.init.self_ms": "ms",
    "campaign.assemble_ms": "ms",
    "setup.import_ms": "ms",
    "setup.platform_ms": "ms",
    "setup.workload_gen_ms": "ms",
    "trace.overhead": "x",
    "trace.wall_s": "s",
}


def timed_import() -> float:
    """Milliseconds to import the public modules the benchmark drives."""
    t0 = time.perf_counter()
    import repro.experiments.campaign  # noqa: F401
    import repro.results  # noqa: F401
    import repro.scenarios.scenario  # noqa: F401

    return (time.perf_counter() - t0) * 1e3


def setup(workload: W.Workload, seed: int) -> Tuple[dict, W.Built]:
    """Set-up timings (ms) of this process, and what set-up built."""
    import_ms = timed_import()
    built = W.build(workload, seed)
    timings = {
        "import_ms": import_ms,
        "platform_ms": built.platform_ms,
        "workload_gen_ms": built.workload_gen_ms,
    }
    return timings, built


def _counter_sum(table, name: str) -> int:
    return sum(
        run.counters.get(name, 0)
        for outcome in table.outcomes.values()
        for run in outcome.runs
    )


def layer_metrics(recorder, table, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign (set-up ones come from run.py).

    HTM layers are given as a share of the traced wall rather than in ms:
    they are absent on ``mct-only``, and a share also reads directly against
    the claim that ``htm.predict`` dominates the HTM workloads.
    """
    r = recorder
    pct = 100.0 / traced_wall
    predicts = r.calls("htm.predict")
    commits = r.calls("htm.commit")
    hits = _counter_sum(table, "htm.baseline_cache_hits")
    misses = _counter_sum(table, "htm.baseline_cache_misses")
    schedule_us = [d * 1e6 for d in r.schedule_durations]
    tracked = list(r.tracked)
    collapses = sum(
        stats.get("collapses", 0)
        for outcome in table.outcomes.values()
        for run in outcome.runs
        for stats in run.server_stats.values()
    )
    return {
        "engine.step.calls": r.calls("engine.step"),
        "engine.step.self_ms": r.self_s("engine.step") * 1e3,
        "fluid.truth.calls": r.calls(prefix="fluid.truth."),
        "fluid.truth.self_ms": r.self_s(prefix="fluid.truth.") * 1e3,
        "fluid.truth.advance_to.self_ms": r.self_s("fluid.truth.advance_to") * 1e3,
        "fluid.truth.set_capacity.self_ms": r.self_s("fluid.truth.set_capacity") * 1e3,
        "server.submit.self_ms": r.self_s("server.submit") * 1e3,
        "server.collapses": collapses,
        "agent.build_context.self_ms": r.self_s("agent.build_context") * 1e3,
        "agent.notify.self_ms": r.self_s("agent.notify") * 1e3,
        "agent.schedule.calls": r.calls("agent.schedule"),
        "agent.schedule.us_p50": W.percentile(schedule_us, 50),
        "agent.schedule.us_p99": W.percentile(schedule_us, 99),
        "heuristic.select.self_ms": r.self_s("heuristic.select") * 1e3,
        "htm.predict.calls": predicts,
        "htm.predict.wall_pct": r.total_s("htm.predict") * pct,
        "htm.predict.self_pct": r.self_s("htm.predict") * pct,
        "htm.predict.tracked_mean": sum(tracked) / len(tracked) if tracked else 0.0,
        "htm.predict.tracked_p99": W.percentile(tracked, 99) if tracked else 0,
        "htm.predicts_per_commit": predicts / commits if commits else 0.0,
        "htm.baseline_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "htm.commit.self_pct": r.self_s("htm.commit") * pct,
        "htm.sync.calls": r.calls("htm.sync"),
        "htm.sync.self_pct": r.self_s("htm.sync") * pct,
        "fluid.whatif.calls": r.calls(prefix="fluid.whatif."),
        "fluid.whatif.self_pct": r.self_s(prefix="fluid.whatif.") * pct,
        "fluid.whatif.run_to_completion.self_pct": (
            r.self_s("fluid.whatif.run_to_completion") * pct
        ),
        "fluid.whatif.copy.self_pct": r.self_s("fluid.whatif.copy") * pct,
        "fluid.whatif.add_task.self_pct": r.self_s("fluid.whatif.add_task") * pct,
        "monitor.reports": r.calls("monitor.receive"),
        "monitor.self_ms": r.self_s(prefix="monitor.") * 1e3,
        "middleware.init.self_ms": r.self_s("middleware.init") * 1e3,
        "campaign.assemble_ms": (
            (traced_wall - sum(r.cell_durations)) / len(r.cell_durations) * 1e3
        ),
        "trace.overhead": traced_wall / untraced_wall,
        "trace.wall_s": traced_wall,
    }


def measure(
    workload: W.Workload,
    seed: int,
    trace: bool,
    expected: Optional[Dict[str, str]],
) -> dict:
    """Set up, warm up and run the workload's campaign once.

    With ``trace`` the campaign then runs a second time under the layer
    spans, and its record hashes must equal the untraced ones.  Returns the
    raw measurements ``run.py`` turns into metrics.  A campaign that raises
    fails all of its cells.
    """
    timings, built = setup(workload, seed)
    out: dict = {"setup": timings, "attempted": 0, "failed": 0, "failures": {}}

    def gated(table, label: str, untraced: Optional[dict] = None) -> dict:
        hashes, failures = W.gate(table, workload, expected)
        if untraced is not None:
            for key in sorted(set(untraced) | set(hashes)):
                if hashes.get(key) != untraced.get(key):
                    failures.setdefault(key, "traced record hash differs from the untraced one")
        out["attempted"] += workload.cells
        out["failed"] += len(failures)
        for key, why in failures.items():
            out["failures"][f"{label}:{key}"] = why
        return hashes

    W.warm_up(workload, seed)
    label = "untraced"
    try:
        table, wall, cells = W.run_once(built)
        out.update(wall_s=wall, tasks=W.count_tasks(table), cell_s=cells)
        out["hashes"] = gated(table, label)
        del table
        if trace:
            label = "traced"
            with spans.install() as recorder:
                table, traced_wall, _ = W.run_once(built)
            gated(table, label, untraced=out["hashes"])
            out["layers"] = layer_metrics(recorder, table, traced_wall, wall)
            out["spans"] = recorder.table()
    except Exception as exc:  # a raising cell fails its whole campaign
        print(f"{label} campaign raised: {exc!r}", file=sys.stderr)
        out["attempted"] += workload.cells
        out["failed"] += workload.cells
        out["failures"][label] = repr(exc)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int)
    parser.add_argument("--metatasks", type=int)
    args = parser.parse_args(argv)

    base = W.get_workload(args.workload)
    workload = W.sized(base, args.tasks, args.metatasks)
    if args.mode == "setup":
        result, _ = setup(workload, args.seed)
    else:
        # Committed hashes exist for the committed sizes only.
        expected = W.load_expected(workload.name, args.seed) if workload == base else None
        result = measure(workload, args.seed, bool(args.trace), expected)
        result["expected_checked"] = expected is not None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
